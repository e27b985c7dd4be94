package cluster

import (
	"testing"

	"aeolia/internal/raft"
	"aeolia/internal/wire/wiretest"
)

// FuzzDecode holds every cluster frame decoder to the wiretest contract,
// seeded with the frames the golden tests pin.
func FuzzDecode(f *testing.F) {
	codecs := []wiretest.Codec{
		{Name: "raft",
			Decode: func(b []byte) (any, error) { return decodeRaftFrame(b) },
			Encode: func(v any) []byte { return v.(raftFrame).encode() }},
		{Name: "request",
			Decode: func(b []byte) (any, error) { return decodeRequest(b) },
			Encode: func(v any) []byte { return v.(request).encode() }},
		{Name: "response",
			Decode: func(b []byte) (any, error) { return decodeResponse(b) },
			Encode: func(v any) []byte { return v.(response).encode() }},
		{Name: "command",
			Decode: func(b []byte) (any, error) { return decodeCommand(b) },
			Encode: func(v any) []byte { return v.(command).encode() }},
		{Name: "monResp",
			Decode: func(b []byte) (any, error) { return decodeMonResp(b) },
			Encode: func(v any) []byte { return v.(monResp).encode() }},
		{Name: "monReport",
			Decode: func(b []byte) (any, error) { return decodeMonReport(b) },
			Encode: func(v any) []byte { return v.(monReport).encode() }},
	}
	f.Add(request{Op: OpWrite, ID: 0x01020304, PG: 7, LBA: 0x1122334455667788, Reply: "c3", Data: []byte{9, 9}}.encode())
	f.Add(response{Status: StatusNotLeader, ID: 42, PG: 3, Leader: -1, Index: 0x0102030405060708, Hash: 0xFEEDF00D, Data: []byte{5}}.encode())
	f.Add(raftFrame{PG: 5, Msg: raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Index: 4, LogTerm: 2, Commit: 1,
		Entries: []raft.Entry{{Term: 3, Data: []byte{1, 2}}, {Term: 3}}}}.encode())
	f.Add(command{Op: OpWrite, ID: 9, LBA: 77, Reply: "c0", Data: []byte{4}}.encode())
	f.Add(monResp{RF: 3, Members: [][]int{{0, 1, 2}, {1, 2, 0}}, Leaders: []int{0, -1}}.encode())
	f.Add(monReport{PG: 2, Term: 6, Leader: 1}.encode())
	// A heartbeat whose trailing entry count claims 65535 entries.
	hostile := raftFrame{}.encode()
	copy(hostile[len(hostile)-2:], "\xff\xff")
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			wiretest.Check(t, b, c)
		}
	})
}

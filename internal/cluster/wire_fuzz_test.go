package cluster

import (
	"bytes"
	"testing"

	"aeolia/internal/raft"
	"aeolia/internal/wire/wiretest"
)

// FuzzDecode holds every cluster frame decoder to the wiretest contract,
// seeded with the frames the golden tests pin. Raft frames are also decoded
// the way an OSD decodes them, into the entries scratch the previous frame
// left behind: twice per input, each result compared with a fresh decode.
func FuzzDecode(f *testing.F) {
	codecs := []wiretest.Codec{
		{Name: "raft",
			Decode: func(b []byte) (any, error) { return decodeRaftFrame(b, nil) },
			Encode: func(v any) []byte { return v.(raftFrame).encode(nil) }},
		{Name: "request",
			Decode: func(b []byte) (any, error) { return decodeRequest(b) },
			Encode: func(v any) []byte { return v.(request).encode(nil) }},
		{Name: "response",
			Decode: func(b []byte) (any, error) { return decodeResponse(b) },
			Encode: func(v any) []byte { return v.(response).encode(nil) }},
		{Name: "command",
			Decode: func(b []byte) (any, error) { return decodeCommand(b) },
			Encode: func(v any) []byte { return v.(command).encode(nil) }},
		{Name: "monResp",
			Decode: func(b []byte) (any, error) { return decodeMonResp(b) },
			Encode: func(v any) []byte { return v.(monResp).encode() }},
		{Name: "monReport",
			Decode: func(b []byte) (any, error) { return decodeMonReport(b) },
			Encode: func(v any) []byte { return v.(monReport).encode() }},
	}
	f.Add(request{Op: OpWrite, ID: 0x01020304, PG: 7, LBA: 0x1122334455667788, Reply: []byte("c3"), Data: []byte{9, 9}}.encode(nil))
	f.Add(response{Status: StatusNotLeader, ID: 42, PG: 3, Leader: -1, Index: 0x0102030405060708, Hash: 0xFEEDF00D, Data: []byte{5}}.encode(nil))
	f.Add(raftFrame{PG: 5, Msg: raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Index: 4, LogTerm: 2, Commit: 1,
		Entries: []raft.Entry{{Term: 3, Data: []byte{1, 2}}, {Term: 3}}}}.encode(nil))
	f.Add(command{Op: OpWrite, ID: 9, LBA: 77, Reply: []byte("c0"), Data: []byte{4}}.encode(nil))
	f.Add(monResp{RF: 3, Members: [][]int{{0, 1, 2}, {1, 2, 0}}, Leaders: []int{0, -1}}.encode())
	f.Add(monReport{PG: 2, Term: 6, Leader: 1}.encode())
	// A heartbeat whose trailing entry count claims 65535 entries.
	hostile := raftFrame{}.encode(nil)
	copy(hostile[len(hostile)-2:], "\xff\xff")
	f.Add(hostile)
	var scratch []raft.Entry // carried from input to input, as an OSD carries it
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			wiretest.Check(t, b, c)
		}
		fresh, err := decodeRaftFrame(b, nil)
		for pass := 0; pass < 2; pass++ {
			got, err2 := decodeRaftFrame(b, scratch)
			scratch = got.Msg.Entries
			if (err == nil) != (err2 == nil) {
				t.Fatalf("pass %d through the scratch: err %v, fresh decode: %v", pass, err2, err)
			}
			if err == nil && !bytes.Equal(got.encode(nil), fresh.encode(nil)) {
				t.Fatalf("pass %d through the scratch decoded\n%+v\nfresh decode\n%+v", pass, got, fresh)
			}
		}
	})
}

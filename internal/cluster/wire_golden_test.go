package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aeolia/internal/raft"
)

// Golden pins for the cluster frames after the internal/wire refactor: the
// expected buffers are assembled with the pre-refactor fixed-offset idiom,
// so any drift in the shared helpers (or in field order) fails here before
// it can split a mixed-version cluster.

func TestClusterRequestWireGolden(t *testing.T) {
	r := request{Op: OpWrite, ID: 0x01020304, PG: 7, LBA: 0x1122334455667788,
		Reply: []byte("c3"), Data: []byte{9, 9}}
	want := make([]byte, 0, 19+len(r.Reply)+len(r.Data))
	want = append(want, magicReq, r.Op)
	want = binary.LittleEndian.AppendUint32(want, r.ID)
	want = binary.LittleEndian.AppendUint16(want, r.PG)
	want = binary.LittleEndian.AppendUint64(want, r.LBA)
	want = append(want, byte(len(r.Reply)))
	want = append(want, r.Reply...)
	want = binary.LittleEndian.AppendUint16(want, uint16(len(r.Data)))
	want = append(want, r.Data...)

	got := r.encode(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("request frame drifted:\n got %x\nwant %x", got, want)
	}
	back, err := decodeRequest(got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Op != r.Op || back.ID != r.ID || back.PG != r.PG || back.LBA != r.LBA ||
		!bytes.Equal(back.Reply, r.Reply) || !bytes.Equal(back.Data, r.Data) {
		t.Fatalf("round trip mismatch: %+v != %+v", back, r)
	}
}

func TestClusterResponseWireGolden(t *testing.T) {
	r := response{Status: StatusNotLeader, ID: 42, PG: 3, Leader: -1,
		Index: 0x0102030405060708, Hash: 0xFEEDF00D, Data: []byte{5}}
	want := make([]byte, 0, 24+len(r.Data))
	want = append(want, magicResp, r.Status)
	want = binary.LittleEndian.AppendUint32(want, r.ID)
	want = binary.LittleEndian.AppendUint16(want, r.PG)
	want = binary.LittleEndian.AppendUint16(want, uint16(r.Leader))
	want = binary.LittleEndian.AppendUint64(want, r.Index)
	want = binary.LittleEndian.AppendUint32(want, r.Hash)
	want = binary.LittleEndian.AppendUint16(want, uint16(len(r.Data)))
	want = append(want, r.Data...)

	got := r.encode(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("response frame drifted:\n got %x\nwant %x", got, want)
	}
	back, err := decodeResponse(got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Status != r.Status || back.ID != r.ID || back.PG != r.PG ||
		back.Leader != r.Leader || back.Index != r.Index || back.Hash != r.Hash ||
		!bytes.Equal(back.Data, r.Data) {
		t.Fatalf("round trip mismatch: %+v != %+v", back, r)
	}
}

func TestRaftFrameWireGolden(t *testing.T) {
	f := raftFrame{PG: 2, Msg: raft.Message{
		Type: raft.MsgApp, From: 1, To: 2, Term: 5, Index: 10, LogTerm: 4,
		Commit: 9, Compact: 3, Reject: true,
		Entries: []raft.Entry{{Term: 5, Data: []byte("ab")}, {Term: 5}},
	}}
	m := f.Msg
	want := make([]byte, 0, 64)
	want = append(want, magicRaft)
	want = binary.LittleEndian.AppendUint16(want, f.PG)
	want = append(want, byte(m.Type))
	want = binary.LittleEndian.AppendUint16(want, uint16(int16(m.From)))
	want = binary.LittleEndian.AppendUint16(want, uint16(int16(m.To)))
	want = binary.LittleEndian.AppendUint64(want, m.Term)
	want = binary.LittleEndian.AppendUint64(want, m.Index)
	want = binary.LittleEndian.AppendUint64(want, m.LogTerm)
	want = binary.LittleEndian.AppendUint64(want, m.Commit)
	want = binary.LittleEndian.AppendUint64(want, m.Compact)
	want = append(want, 1) // Reject
	want = binary.LittleEndian.AppendUint16(want, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		want = binary.LittleEndian.AppendUint64(want, e.Term)
		want = binary.LittleEndian.AppendUint16(want, uint16(len(e.Data)))
		want = append(want, e.Data...)
	}

	got := f.encode(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("raft frame drifted:\n got %x\nwant %x", got, want)
	}
	back, err := decodeRaftFrame(got, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.PG != f.PG || back.Msg.Type != m.Type || back.Msg.Term != m.Term ||
		back.Msg.Reject != m.Reject || len(back.Msg.Entries) != 2 ||
		!bytes.Equal(back.Msg.Entries[0].Data, []byte("ab")) ||
		back.Msg.Entries[1].Data != nil {
		t.Fatalf("round trip mismatch: %+v != %+v", back, f)
	}
}

func TestMonReportWireGolden(t *testing.T) {
	r := monReport{PG: 9, Term: 77, Leader: -1}
	want := make([]byte, 0, 13)
	want = append(want, magicMonReport)
	want = binary.LittleEndian.AppendUint16(want, r.PG)
	want = binary.LittleEndian.AppendUint64(want, r.Term)
	want = binary.LittleEndian.AppendUint16(want, uint16(r.Leader))

	got := r.encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("monReport frame drifted:\n got %x\nwant %x", got, want)
	}
	back, err := decodeMonReport(got)
	if err != nil || back != r {
		t.Fatalf("round trip mismatch: %+v, %v", back, err)
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math"

	"aeolia/internal/raft"
	"aeolia/internal/wire"
)

// Frame magics: the first payload byte routes a message to the raft path
// (urgent uintr class) or the client path (normal class) before decoding.
const (
	magicRaft      = 0xB1
	magicReq       = 0xB2
	magicResp      = 0xB3
	magicMonReq    = 0xB4
	magicMonResp   = 0xB5
	magicMonReport = 0xB6
)

// Client operations.
const (
	OpWrite = 1
	OpRead  = 2
)

// Response statuses.
const (
	StatusOK        = 0
	StatusNotLeader = 1
	StatusErr       = 2
)

var errShort = errors.New("cluster: short frame")

// maxField is the longest payload a frame's 16-bit length field describes:
// a client block, a replicated command, a raft entry.
const maxField = math.MaxUint16

// len16 encodes a length field. Everything that reaches an encoder was
// vetted against maxField (cluster.New for the configured block size,
// handleRequest for client frames), so a longer one is a bug here, and
// wrapping it would store and acknowledge a truncated block.
func len16(n int) uint16 {
	if n > maxField {
		panic(fmt.Sprintf("cluster: %d bytes do not fit a 16-bit length field", n))
	}
	return uint16(n)
}

// done collapses any reader error (or a bad magic recorded by the caller)
// into the package's short-frame error.
func done(d *wire.Reader) error {
	if d.Err() != nil {
		return errShort
	}
	return nil
}

// fnv32 hashes payload bytes; it is the 32-bit value carried in
// ClusterAck/ClusterRead/RaftApply trace events and compared across replicas.
func fnv32(b []byte) uint32 {
	if onHash != nil {
		onHash(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// onHash, when a test sets it, sees every buffer fnv32 hashes.
var onHash func([]byte)

// The data-path encoders (raft frames, requests, responses, commands) write
// their frame over b[:0] and return it; b should have room for size() bytes
// (a shorter one grows, so nil works, but allocates). Frames the receiver
// releases once decoded come from the sending endpoint's free list
// (netsim.Endpoint.Frame); the rest are allocated to size where they are
// sent, with the reason. The monitor's frames are control plane, a handful
// per election, and allocate their own.

// raftFrame wraps one raft message for a placement group on the wire.
type raftFrame struct {
	PG  uint16
	Msg raft.Message
}

func (f raftFrame) size() int {
	n := 1 + 2 + 1 + 2 + 2 + 8*5 + 1 + 2
	for _, e := range f.Msg.Entries {
		n += 8 + 2 + len(e.Data)
	}
	return n
}

func (f raftFrame) encode(b []byte) []byte {
	m := f.Msg
	w := wire.Into(b).
		U8(magicRaft).U16(f.PG).U8(byte(m.Type)).
		U16(uint16(int16(m.From))).U16(uint16(int16(m.To))).
		U64(m.Term).U64(m.Index).U64(m.LogTerm).U64(m.Commit).U64(m.Compact).
		Bool(m.Reject).U16(len16(len(m.Entries)))
	for _, e := range m.Entries {
		w.U64(e.Term).U16(len16(len(e.Data))).Bytes(e.Data)
	}
	return w.Frame()
}

// decodeRaftFrame decodes b, appending its entries to ents[:0]: the
// receiving OSD passes the scratch the previous frame's entries used, since
// raft copies them into its log. The entries' data alias b.
func decodeRaftFrame(b []byte, ents []raft.Entry) (raftFrame, error) {
	var f raftFrame
	if len(b) < 1 || b[0] != magicRaft {
		return f, errShort
	}
	d := wire.NewReader(b)
	d.U8() // magic
	f.PG = d.U16()
	m := &f.Msg
	m.Type = raft.MsgType(d.U8())
	m.From = int(int16(d.U16()))
	m.To = int(int16(d.U16()))
	m.Term = d.U64()
	m.Index = d.U64()
	m.LogTerm = d.U64()
	m.Commit = d.U64()
	m.Compact = d.U64()
	m.Reject = d.Bool()
	nEnts := d.Count(int(d.U16()), 8+2)
	if d.Err() != nil {
		return f, errShort
	}
	m.Entries = ents[:0]
	for i := 0; i < nEnts; i++ {
		term := d.U64()
		dl := int(d.U16())
		data := d.View(dl)
		if d.Err() != nil {
			return f, errShort
		}
		m.Entries = append(m.Entries, raft.Entry{Term: term, Data: data})
	}
	return f, done(d)
}

// request is one client command on the wire.
type request struct {
	Op   uint8
	ID   uint32 // request id (client id << 24 | per-client sequence)
	PG   uint16
	LBA  uint64
	Data []byte
	// Reply names the reply endpoint (encoded so retried commands survive
	// in the log). Decoded, it aliases the frame: a leader answers the
	// fabric's own name for the source, so nothing turns it into a string.
	Reply []byte
}

func (r request) size() int { return 19 + len(r.Reply) + len(r.Data) }

func (r request) encode(b []byte) []byte {
	return wire.Into(b).
		U8(magicReq).U8(r.Op).U32(r.ID).U16(r.PG).U64(r.LBA).
		U8(uint8(len(r.Reply))).Bytes(r.Reply).
		U16(len16(len(r.Data))).Bytes(r.Data).Frame()
}

func decodeRequest(b []byte) (request, error) {
	var r request
	if len(b) < 1 || b[0] != magicReq {
		return r, errShort
	}
	d := wire.NewReader(b)
	d.U8() // magic
	r.Op = d.U8()
	r.ID = d.U32()
	r.PG = d.U16()
	r.LBA = d.U64()
	r.Reply = d.View(int(d.U8()))
	r.Data = d.View(int(d.U16()))
	return r, done(d)
}

// response answers one client command.
type response struct {
	Status uint8
	ID     uint32
	PG     uint16
	Leader int16 // hint on StatusNotLeader (-1 when unknown)
	Index  uint64
	Hash   uint32
	Data   []byte // decoded, aliases the frame
}

func (r response) size() int { return 24 + len(r.Data) }

func (r response) encode(b []byte) []byte {
	return wire.Into(b).
		U8(magicResp).U8(r.Status).U32(r.ID).U16(r.PG).
		U16(uint16(r.Leader)).U64(r.Index).U32(r.Hash).
		U16(len16(len(r.Data))).Bytes(r.Data).Frame()
}

func decodeResponse(b []byte) (response, error) {
	var r response
	if len(b) < 1 || b[0] != magicResp {
		return r, errShort
	}
	d := wire.NewReader(b)
	d.U8() // magic
	r.Status = d.U8()
	r.ID = d.U32()
	r.PG = d.U16()
	r.Leader = int16(d.U16())
	r.Index = d.U64()
	r.Hash = d.U32()
	r.Data = d.View(int(d.U16()))
	return r, done(d)
}

// command is the payload serialized into raft entries: the replicated
// operation every replica applies. Reads are serialized through the log too
// (log-ordered reads), which is what makes the stale-read invariant sound.
// Decoded, Reply and Data alias the entry.
type command struct {
	Op    uint8
	ID    uint32
	LBA   uint64
	Reply []byte
	Data  []byte
}

// size is the encoded length: what must fit a raft entry's length field.
func (c command) size() int { return 16 + len(c.Reply) + len(c.Data) }

func (c command) encode(b []byte) []byte {
	return wire.Into(b).
		U8(c.Op).U32(c.ID).U64(c.LBA).
		U8(uint8(len(c.Reply))).Bytes(c.Reply).
		U16(len16(len(c.Data))).Bytes(c.Data).Frame()
}

func decodeCommand(b []byte) (command, error) {
	var c command
	d := wire.NewReader(b)
	c.Op = d.U8()
	c.ID = d.U32()
	c.LBA = d.U64()
	c.Reply = d.View(int(d.U8()))
	c.Data = d.View(int(d.U16()))
	return c, done(d)
}

// monResp is the monitor's osd/pg map answer: per-pg membership and the
// last reported leader.
type monResp struct {
	RF      int
	Members [][]int
	Leaders []int
}

func encodeMonReq() []byte { return []byte{magicMonReq} }

func (mr monResp) encode() []byte {
	w := wire.NewWriter(4).
		U8(magicMonResp).U8(byte(mr.RF)).U16(uint16(len(mr.Members)))
	for pg, ms := range mr.Members {
		w.U8(uint8(len(ms)))
		for _, m := range ms {
			w.U16(uint16(int16(m)))
		}
		w.U16(uint16(int16(mr.Leaders[pg])))
	}
	return w.Frame()
}

func decodeMonResp(b []byte) (monResp, error) {
	var mr monResp
	if len(b) < 1 || b[0] != magicMonResp {
		return mr, errShort
	}
	d := wire.NewReader(b)
	d.U8() // magic
	mr.RF = int(d.U8())
	npg := int(d.U16())
	for pg := 0; pg < npg; pg++ {
		nm := int(d.U8())
		ms := make([]int, nm)
		for i := range ms {
			ms[i] = int(int16(d.U16()))
		}
		if d.Err() != nil {
			return mr, errShort
		}
		mr.Members = append(mr.Members, ms)
		mr.Leaders = append(mr.Leaders, int(int16(d.U16())))
	}
	return mr, done(d)
}

// monReport is a node's leadership-change report to the monitor.
type monReport struct {
	PG     uint16
	Term   uint64
	Leader int16
}

func (r monReport) encode() []byte {
	return wire.NewWriter(13).
		U8(magicMonReport).U16(r.PG).U64(r.Term).U16(uint16(r.Leader)).Frame()
}

func decodeMonReport(b []byte) (monReport, error) {
	var r monReport
	if len(b) < 1 || b[0] != magicMonReport {
		return r, errShort
	}
	d := wire.NewReader(b)
	d.U8() // magic
	r.PG = d.U16()
	r.Term = d.U64()
	r.Leader = int16(d.U16())
	return r, done(d)
}

func (r response) String() string {
	return fmt.Sprintf("resp{status=%d id=%d pg=%d leader=%d idx=%d}", r.Status, r.ID, r.PG, r.Leader, r.Index)
}

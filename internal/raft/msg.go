package raft

import "fmt"

// MsgType identifies a raft protocol message.
type MsgType uint8

const (
	// MsgVote is a candidate's RequestVote.
	MsgVote MsgType = iota
	// MsgVoteResp answers a MsgVote (Reject = vote not granted).
	MsgVoteResp
	// MsgApp is AppendEntries: replication when Entries is non-empty; when
	// empty, a heartbeat or the probe after a rewind.
	MsgApp
	// MsgAppResp answers a MsgApp (Index = match on success, a rewind hint
	// on rejection).
	MsgAppResp

	numMsgTypes
)

var msgNames = [numMsgTypes]string{
	MsgVote:     "MsgVote",
	MsgVoteResp: "MsgVoteResp",
	MsgApp:      "MsgApp",
	MsgAppResp:  "MsgAppResp",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one raft protocol message. Field meaning by type:
//
//   - MsgVote: Index/LogTerm are the candidate's last log index and term.
//   - MsgVoteResp: Reject reports whether the vote was withheld.
//   - MsgApp: Index/LogTerm are prevLogIndex/prevLogTerm, Commit the
//     leader's commit index, Compact the leader-sanctioned compaction
//     boundary (every replica stores the prefix up to it), Entries the
//     payload (empty for heartbeats).
//   - MsgAppResp: on success Index is the follower's new match index; on
//     rejection it is the index the leader should probe next — the
//     follower's last index when prev lies beyond its log, one below prev on
//     a term mismatch. The follower stores everything it ever acknowledged
//     to this leader, so a fresh hint is never below the leader's match.
type Message struct {
	Type     MsgType
	From, To int
	Term     uint64
	Index    uint64
	LogTerm  uint64
	Commit   uint64
	Compact  uint64
	Reject   bool
	Entries  []Entry
}

func (m Message) String() string {
	return fmt.Sprintf("%v %d->%d term=%d idx=%d logterm=%d commit=%d rej=%v n=%d",
		m.Type, m.From, m.To, m.Term, m.Index, m.LogTerm, m.Commit, m.Reject, len(m.Entries))
}

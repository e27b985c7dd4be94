package raft

import "fmt"

// Entry is one replicated log record. An empty Data marks the no-op a new
// leader appends to commit its term (and the read markers the cluster layer
// serializes through the log).
type Entry struct {
	Term uint64
	Data []byte
}

// Log is a raft log with prefix compaction by truncation: indices are
// 1-based and global, but only entries above the compaction boundary are
// stored. The boundary entry's term is retained so AppendEntries consistency
// checks keep working at the edge (snapshot-free compaction: the cluster
// only discards prefixes every live replica has already stored, so no
// snapshot transfer path is needed).
type Log struct {
	offset    uint64 // index of the first stored entry
	boundTerm uint64 // term of entry offset-1 (0 when offset == 1)
	entries   []Entry
}

// NewLog returns an empty log starting at index 1.
func NewLog() *Log { return &Log{offset: 1} }

// FirstIndex returns the index of the first stored (non-compacted) entry.
func (l *Log) FirstIndex() uint64 { return l.offset }

// LastIndex returns the index of the last entry (offset-1 when empty).
func (l *Log) LastIndex() uint64 { return l.offset + uint64(len(l.entries)) - 1 }

// Len returns the number of stored entries.
func (l *Log) Len() int { return len(l.entries) }

// Term returns the term of entry i. It answers for the compaction boundary
// (offset-1) from the retained boundary term; ok is false outside
// [offset-1, LastIndex].
func (l *Log) Term(i uint64) (uint64, bool) {
	if i == l.offset-1 {
		return l.boundTerm, true
	}
	if i < l.offset || i > l.LastIndex() {
		return 0, false
	}
	return l.entries[i-l.offset].Term, true
}

// Entry returns entry i; ok is false outside the stored range.
func (l *Log) Entry(i uint64) (Entry, bool) {
	if i < l.offset || i > l.LastIndex() {
		return Entry{}, false
	}
	return l.entries[i-l.offset], true
}

// Entries returns the entries in [lo, hi] clamped to the stored range, as a
// view of the log: no copy is made, and the caller must not write to it. A
// view stays valid for good, because the log never writes a slot it has
// handed out: Append only writes past the end, and TruncateSuffix and
// CompactPrefix move the entries they keep to fresh storage.
func (l *Log) Entries(lo, hi uint64) []Entry {
	if lo < l.offset {
		lo = l.offset
	}
	if last := l.LastIndex(); hi > last {
		hi = last
	}
	if lo > hi {
		return nil
	}
	return l.entries[lo-l.offset : hi-l.offset+1 : hi-l.offset+1]
}

// Append adds entries at the tail and returns the new last index.
func (l *Log) Append(es ...Entry) uint64 {
	l.entries = append(l.entries, es...)
	return l.LastIndex()
}

// TruncateSuffix drops every entry with index >= from (the conflict path of
// AppendEntries). Truncating at or below the compaction boundary panics:
// compacted entries are by construction committed everywhere, and a
// committed entry must never be truncated. The kept prefix moves to fresh
// storage, so the entries that replace the dropped ones cannot overwrite a
// view Entries handed out (a message still in someone's queue).
func (l *Log) TruncateSuffix(from uint64) {
	if from < l.offset {
		panic(fmt.Sprintf("raft: suffix truncation at %d below compaction boundary %d", from, l.offset))
	}
	if from > l.LastIndex() {
		return
	}
	l.entries = append([]Entry(nil), l.entries[:from-l.offset]...)
}

// CompactPrefix discards entries with index <= to, retaining the boundary
// term. Compacting beyond the last entry is clamped; compacting below the
// current boundary is a no-op.
func (l *Log) CompactPrefix(to uint64) {
	if to >= l.offset+uint64(len(l.entries)) {
		to = l.offset + uint64(len(l.entries)) - 1
	}
	if to < l.offset {
		return
	}
	t, _ := l.Term(to)
	l.entries = append([]Entry(nil), l.entries[to-l.offset+1:]...)
	l.offset = to + 1
	l.boundTerm = t
}

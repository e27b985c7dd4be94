package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/vfs"
)

// CPU costs of the store's in-memory work (skiplist probes, record
// assembly, index binary search) on the simulated 2GHz core.
const (
	costPut        = 150 * time.Nanosecond
	costGet        = 150 * time.Nanosecond
	costTableProbe = 80 * time.Nanosecond
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kv: key not found")

// Options tune the store.
type Options struct {
	// Dir is the database directory.
	Dir string
	// MemtableBytes triggers a flush (default 1MB).
	MemtableBytes int
	// L0Tables triggers inline compaction (default 6).
	L0Tables int
	// SyncWrites fsyncs the WAL on every Put (db_bench fillsync).
	SyncWrites bool
}

// DB is the LSM store.
type DB struct {
	fs  vfs.FileSystem
	opt Options

	mem     *skiplist
	wal     int // fd
	walPath string
	walBuf  []byte

	tables []*sstable // newest first
	nextID int

	// Stats.
	Puts, Gets, Deletes, Flushes, Compactions uint64
}

// Open creates/opens a database directory.
func Open(env *sim.Env, fs vfs.FileSystem, opt Options) (*DB, error) {
	if opt.Dir == "" {
		opt.Dir = "/db"
	}
	if opt.MemtableBytes == 0 {
		opt.MemtableBytes = 1 << 20
	}
	if opt.L0Tables == 0 {
		opt.L0Tables = 6
	}
	db := &DB{fs: fs, opt: opt, mem: newSkiplist(1)}
	if err := fs.Mkdir(env, opt.Dir); err != nil && !errorsIsExist(err) {
		return nil, err
	}
	// Recover existing tables (MANIFEST-free: scan the directory).
	dents, err := fs.ReadDir(env, opt.Dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, d := range dents {
		var id int
		if n, _ := fmt.Sscanf(d.Name, "sst-%06d", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	for _, id := range ids {
		t, err := openSSTable(env, fs, fmt.Sprintf("%s/sst-%06d", opt.Dir, id))
		if err != nil {
			return nil, err
		}
		db.tables = append(db.tables, t)
		if id >= db.nextID {
			db.nextID = id + 1
		}
	}
	// Replay the WAL if present.
	db.walPath = opt.Dir + "/wal"
	if err := db.replayWAL(env); err != nil {
		return nil, err
	}
	fd, err := fs.Open(env, db.walPath, vfs.O_CREATE|vfs.O_RDWR|vfs.O_APPEND)
	if err != nil {
		return nil, err
	}
	db.wal = fd
	return db, nil
}

func errorsIsExist(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("exists"))
}

// Close flushes the memtable and releases the WAL.
func (db *DB) Close(env *sim.Env) error {
	if db.mem.Len() > 0 {
		if err := db.flushMemtable(env); err != nil {
			return err
		}
	}
	return db.fs.Close(env, db.wal)
}

// WAL record: crc(4) klen(4) vlen(4) tomb(1) key val
func walRecord(key, value []byte, tomb bool) []byte {
	rec := make([]byte, 13+len(key)+len(value))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(value)))
	if tomb {
		rec[12] = 1
	}
	copy(rec[13:], key)
	copy(rec[13+len(key):], value)
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[4:]))
	return rec
}

func (db *DB) replayWAL(env *sim.Env) error {
	st, err := db.fs.Stat(env, db.walPath)
	if err != nil {
		return nil // no WAL
	}
	if st.Size == 0 {
		return nil
	}
	fd, err := db.fs.Open(env, db.walPath, vfs.O_RDONLY)
	if err != nil {
		return err
	}
	data := make([]byte, st.Size)
	if _, err := db.fs.ReadAt(env, fd, data, 0); err != nil {
		db.fs.Close(env, fd)
		return err
	}
	db.fs.Close(env, fd)
	off := 0
	for off+13 <= len(data) {
		crc := binary.LittleEndian.Uint32(data[off:])
		klen := int(binary.LittleEndian.Uint32(data[off+4:]))
		vlen := int(binary.LittleEndian.Uint32(data[off+8:]))
		tomb := data[off+12] == 1
		end := off + 13 + klen + vlen
		if end > len(data) {
			break // torn tail
		}
		if crc32.ChecksumIEEE(data[off+4:end]) != crc {
			break // corrupt tail: stop replay
		}
		key := data[off+13 : off+13+klen]
		val := data[off+13+klen : end]
		if tomb {
			db.mem.Put(append([]byte(nil), key...), nil)
		} else {
			db.mem.Put(append([]byte(nil), key...), append([]byte(nil), val...))
		}
		off = end
	}
	return nil
}

// Put inserts/overwrites a key.
func (db *DB) Put(env *sim.Env, key, value []byte) error {
	return db.write(env, key, value, false)
}

// Delete removes a key (tombstone).
func (db *DB) Delete(env *sim.Env, key []byte) error {
	return db.write(env, key, nil, true)
}

func (db *DB) write(env *sim.Env, key, value []byte, tomb bool) error {
	env.Exec(costPut)
	rec := walRecord(key, value, tomb)
	if _, err := db.fs.Write(env, db.wal, rec); err != nil {
		return err
	}
	if db.opt.SyncWrites {
		if err := db.fs.Fsync(env, db.wal); err != nil {
			return err
		}
	}
	if tomb {
		db.mem.Put(key, nil)
		db.Deletes++
	} else {
		db.mem.Put(key, append([]byte(nil), value...))
		db.Puts++
	}
	if db.mem.Bytes() >= db.opt.MemtableBytes {
		return db.flushMemtable(env)
	}
	return nil
}

// Get returns the newest value for key.
func (db *DB) Get(env *sim.Env, key []byte) ([]byte, error) {
	db.Gets++
	env.Exec(costGet)
	if v, ok := db.mem.Get(key); ok {
		if v == nil {
			return nil, ErrNotFound
		}
		return v, nil
	}
	for _, t := range db.tables {
		env.Exec(costTableProbe)
		if !t.mayContain(key) {
			continue
		}
		v, tomb, found, err := t.get(env, db.fs, key)
		if err != nil {
			return nil, err
		}
		if found {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// flushMemtable writes the memtable as a new L0 table, truncates the WAL,
// and compacts when L0 grows past the threshold.
func (db *DB) flushMemtable(env *sim.Env) error {
	var keys, vals [][]byte
	var tombs []bool
	db.mem.Walk(func(k, v []byte) bool {
		keys = append(keys, k)
		if v == nil {
			vals = append(vals, nil)
			tombs = append(tombs, true)
		} else {
			vals = append(vals, v)
			tombs = append(tombs, false)
		}
		return true
	})
	if len(keys) == 0 {
		return nil
	}
	path := fmt.Sprintf("%s/sst-%06d", db.opt.Dir, db.nextID)
	db.nextID++
	t, err := writeSSTable(env, db.fs, path, keys, vals, tombs)
	if err != nil {
		return err
	}
	db.tables = append([]*sstable{t}, db.tables...)
	db.mem = newSkiplist(int64(db.nextID))
	db.Flushes++
	// Truncate the WAL: its contents are durable in the table.
	if err := db.fs.Truncate(env, db.walPath, 0); err != nil {
		return err
	}
	if len(db.tables) > db.opt.L0Tables {
		return db.compact(env)
	}
	return nil
}

// compact merges every table into one (single-level compaction), dropping
// shadowed records and tombstones.
func (db *DB) compact(env *sim.Env) error {
	merged := map[string][]byte{}
	tomb := map[string]bool{}
	var order []string
	// Oldest to newest so newer records overwrite.
	for i := len(db.tables) - 1; i >= 0; i-- {
		keys, vals, tombs, err := db.tables[i].scanAll(env, db.fs)
		if err != nil {
			return err
		}
		for j := range keys {
			k := string(keys[j])
			if _, seen := merged[k]; !seen && !tomb[k] {
				order = append(order, k)
			}
			if tombs[j] {
				delete(merged, k)
				tomb[k] = true
			} else {
				merged[k] = vals[j]
				delete(tomb, k)
			}
		}
	}
	sort.Strings(order)
	var keys, vals [][]byte
	var tombs []bool
	for _, k := range order {
		v, ok := merged[k]
		if !ok {
			continue // deleted
		}
		keys = append(keys, []byte(k))
		vals = append(vals, v)
		tombs = append(tombs, false)
	}
	path := fmt.Sprintf("%s/sst-%06d", db.opt.Dir, db.nextID)
	db.nextID++
	t, err := writeSSTable(env, db.fs, path, keys, vals, tombs)
	if err != nil {
		return err
	}
	// Remove the old tables.
	old := db.tables
	db.tables = []*sstable{t}
	for _, o := range old {
		if err := db.fs.Unlink(env, o.path); err != nil {
			return err
		}
	}
	db.Compactions++
	return nil
}

// Tables returns the current table count (tests).
func (db *DB) Tables() int { return len(db.tables) }

// Package aeomds is the metadata service of the EOS-style MGM/FST split:
// the namespace (directories, file metadata, permissions, file→extent
// striping maps) lives on a set of metadata shards, bulk data lives on
// aeosvc data servers, and clients go to a shard only to open — after the
// open returns a layout lease, reads and writes travel directly between the
// client and the data nodes.
//
// Sharding rule: a directory is owned by shard Hash(dirPath) % nShards, and
// that shard holds the directory's entry table plus the metadata of every
// child file. A client computes the owning shard locally from the parent
// path — routing needs no directory walk and no central map. Renames move
// file metadata between shards; data objects are named by inode number
// ("/o<ino>"), so a rename never touches the data nodes or invalidates
// layouts.
//
// This file is the env-free namespace core: pure data structures shared by
// the message-driven Service, the differential tests, and the reference
// model. It consumes no virtual time and takes no locks — each shard is
// owned by exactly one CSP task.
package aeomds

import (
	"errors"
	"sort"

	"aeolia/internal/dcache"
)

// Namespace errors. The wire layer ships these as strings; String stability
// is part of the shard-count-invariance contract.
var (
	ErrNotFound    = errors.New("aeomds: no such file or directory")
	ErrExists      = errors.New("aeomds: file exists")
	ErrIsDir       = errors.New("aeomds: is a directory")
	ErrNotDir      = errors.New("aeomds: not a directory")
	ErrAccess      = errors.New("aeomds: permission denied")
	ErrUnsupported = errors.New("aeomds: operation not supported")
)

// RootIno is the root directory's inode number.
const RootIno = 1

// Layout parameterizes file striping across data nodes.
type Layout struct {
	// StripeUnit is the bytes per stripe (default 16384).
	StripeUnit uint32
	// Width is how many data nodes a file stripes across (default 2,
	// capped at the data-node count).
	Width int
}

func (l Layout) stripeUnit() uint32 {
	if l.StripeUnit == 0 {
		return 16384
	}
	return l.StripeUnit
}

func (l Layout) width(dataNodes int) int {
	w := l.Width
	if w <= 0 {
		w = 2
	}
	if w > dataNodes {
		w = dataNodes
	}
	if w < 1 {
		w = 1
	}
	return w
}

// FileMeta is one file's metadata record: identity, size, permissions, and
// the striping map. Stripe k of the file lives on data node
// Nodes[k % len(Nodes)], at object-local offset
// (k/len(Nodes))*StripeUnit — classic RAID-0 packing, one object per node.
type FileMeta struct {
	Ino        uint64
	Size       uint64
	Mode       uint32
	StripeUnit uint32
	Nodes      []uint16
}

// Clone deep-copies the record (ingest messages must not alias shard state).
func (m *FileMeta) Clone() *FileMeta {
	c := *m
	c.Nodes = append([]uint16(nil), m.Nodes...)
	return &c
}

// Dirent is one readdir row.
type Dirent struct {
	Name string
	Ino  uint64
	Dir  bool
}

// ShardOf is the partitioning rule: the shard owning a directory path.
func ShardOf(dirPath string, nShards int) int {
	return int(dcache.Hash(dirPath) % uint64(nShards))
}

// JoinPath appends a name to a directory path.
func JoinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// SplitPath splits a cleaned absolute path into parent directory and leaf
// name ("/a/b" → "/a", "b"; "/b" → "/", "b").
func SplitPath(path string) (dir, name string) {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

// Dir is one directory's shard-resident state: the entry table (name → ino,
// negative results cached) and the metadata of child files, keyed by ino.
// A child that is itself a directory has an entry here but keeps its own
// Dir on its own shard.
type Dir struct {
	Ino   uint64
	tab   *dcache.Table
	files map[uint64]*FileMeta
}

// Shard is one metadata shard: the directories it owns and its private
// inode-number space. All methods are single-owner — the CSP service calls
// them only from the shard's task.
type Shard struct {
	id        int
	lay       Layout
	dataNodes int
	dirs      map[string]*Dir
	seq       uint64

	// Stats.
	Ops, NegHits uint64
}

func newShard(id int, lay Layout, dataNodes int) *Shard {
	return &Shard{id: id, lay: lay, dataNodes: dataNodes, dirs: make(map[string]*Dir)}
}

// ID returns the shard index.
func (s *Shard) ID() int { return s.id }

// alloc returns a fresh inode number from the shard's private space
// (shard+1 in the high bits keeps spaces disjoint and never collides with
// RootIno).
func (s *Shard) alloc() uint64 {
	s.seq++
	return uint64(s.id+1)<<32 | s.seq
}

// AttachDir installs directory state for path (mkdir's child-shard half,
// and how the root directory is seeded).
func (s *Shard) AttachDir(path string, ino uint64) {
	if s.dirs[path] == nil {
		s.dirs[path] = &Dir{Ino: ino, tab: dcache.New(), files: make(map[uint64]*FileMeta)}
	}
}

// dir resolves a directory owned by this shard.
func (s *Shard) dir(dirPath string) (*Dir, error) {
	d := s.dirs[dirPath]
	if d == nil {
		return nil, ErrNotFound
	}
	return d, nil
}

// Lookup resolves name in dirPath. meta is nil when the entry is a
// subdirectory. A miss is cached as a negative entry.
func (s *Shard) Lookup(dirPath, name string) (ino uint64, meta *FileMeta, err error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return 0, nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if neg {
		s.NegHits++
		return 0, nil, ErrNotFound
	}
	if !ok {
		d.tab.InsertNegative(name)
		return 0, nil, ErrNotFound
	}
	return ino, d.files[ino], nil
}

// Open resolves (optionally creating) a file for access. mode is the
// create-time permission bits; write demands the owner-write bit on an
// existing file.
func (s *Shard) Open(dirPath, name string, create, write bool, mode uint32) (*FileMeta, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if ok && !neg {
		m := d.files[ino]
		if m == nil {
			return nil, ErrIsDir
		}
		if write && m.Mode&0200 == 0 {
			return nil, ErrAccess
		}
		return m, nil
	}
	if neg {
		s.NegHits++
	}
	if !create {
		if !neg {
			d.tab.InsertNegative(name)
		}
		return nil, ErrNotFound
	}
	m := &FileMeta{Ino: s.alloc(), Mode: mode, StripeUnit: s.lay.stripeUnit()}
	if m.Mode == 0 {
		m.Mode = 0644
	}
	w := s.lay.width(s.dataNodes)
	start := int(m.Ino % uint64(s.dataNodes))
	for i := 0; i < w; i++ {
		m.Nodes = append(m.Nodes, uint16((start+i)%s.dataNodes))
	}
	d.tab.Insert(name, m.Ino)
	d.files[m.Ino] = m
	return m, nil
}

// MkdirEntry is the parent-shard half of mkdir: allocate the child's ino
// and insert the entry. The caller must then AttachDir on the child's shard
// (same shard or a peer).
func (s *Shard) MkdirEntry(dirPath, name string) (uint64, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return 0, err
	}
	if _, neg, ok := d.tab.Lookup(name); ok && !neg {
		return 0, ErrExists
	}
	ino := s.alloc()
	d.tab.Insert(name, ino)
	return ino, nil
}

// Unlink removes a file entry, returning its metadata (the caller revokes
// its leases). Directories are not unlinkable.
func (s *Shard) Unlink(dirPath, name string) (*FileMeta, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	delete(d.files, ino)
	d.tab.InsertNegative(name)
	return m, nil
}

// Readdir lists a directory's live entries, sorted by name.
func (s *Shard) Readdir(dirPath string) ([]Dirent, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	var out []Dirent
	d.tab.Range(func(e dcache.Entry) bool {
		if !e.Neg {
			out = append(out, Dirent{Name: e.Name, Ino: e.Ino, Dir: d.files[e.Ino] == nil})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// SetSize updates a file's size (truncate, or the size flush on lease
// release) and returns the record.
func (s *Shard) SetSize(dirPath, name string, size uint64) (*FileMeta, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	m.Size = size
	return m, nil
}

// Chmod updates a file's permission bits.
func (s *Shard) Chmod(dirPath, name string, mode uint32) (*FileMeta, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	m.Mode = mode
	return m, nil
}

// RemoveSrc is the source-shard half of a rename: drop the entry but hand
// the metadata to the caller for ingestion at the destination. The caller
// MUST have already linked the destination (never-invisible order).
func (s *Shard) RemoveSrc(dirPath, name string) (*FileMeta, error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	delete(d.files, ino)
	d.tab.InsertNegative(name)
	return m, nil
}

// PeekFile returns a file's metadata without negative-caching a miss
// (rename validation).
func (s *Shard) PeekFile(dirPath, name string) (*FileMeta, error) {
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(name)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	return m, nil
}

// Ingest links an incoming file record under dirPath/name (the
// destination-shard half of a rename), displacing an existing file of that
// name. displaced is nil when the name was free; linking over a directory
// fails.
func (s *Shard) Ingest(dirPath, name string, m *FileMeta) (displaced *FileMeta, err error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	if ino, neg, ok := d.tab.Lookup(name); ok && !neg {
		old := d.files[ino]
		if old == nil {
			return nil, ErrIsDir
		}
		displaced = old
		delete(d.files, ino)
	}
	d.tab.Insert(name, m.Ino)
	d.files[m.Ino] = m
	return displaced, nil
}

// RenameLocal renames within one directory (both names share the ino, so
// the split Ingest/RemoveSrc pair would clobber the metadata record).
// Link-then-unlink order still holds: the destination entry is inserted
// before the source entry is negated.
func (s *Shard) RenameLocal(dirPath, srcName, dstName string) (displaced *FileMeta, err error) {
	s.Ops++
	d, err := s.dir(dirPath)
	if err != nil {
		return nil, err
	}
	ino, neg, ok := d.tab.Lookup(srcName)
	if !ok || neg {
		return nil, ErrNotFound
	}
	m := d.files[ino]
	if m == nil {
		return nil, ErrIsDir
	}
	if dstIno, dneg, dok := d.tab.Lookup(dstName); dok && !dneg {
		old := d.files[dstIno]
		if old == nil {
			return nil, ErrIsDir
		}
		displaced = old
		delete(d.files, dstIno)
	}
	d.tab.Insert(dstName, ino)
	d.tab.InsertNegative(srcName)
	return displaced, nil
}

// Namespace is the synchronous façade over a shard set: it routes each
// operation to the owning shard with direct calls. The CSP Service routes
// the same primitives over the fabric; the differential and invariance
// tests drive this façade.
type Namespace struct {
	shards []*Shard
}

// NewNamespace builds an nShards-way namespace striping files over
// dataNodes data nodes, with the root directory attached.
func NewNamespace(nShards, dataNodes int, lay Layout) *Namespace {
	if nShards < 1 {
		nShards = 1
	}
	if dataNodes < 1 {
		dataNodes = 1
	}
	ns := &Namespace{}
	for i := 0; i < nShards; i++ {
		ns.shards = append(ns.shards, newShard(i, lay, dataNodes))
	}
	ns.shardFor("/").AttachDir("/", RootIno)
	return ns
}

// NumShards returns the shard count.
func (ns *Namespace) NumShards() int { return len(ns.shards) }

// Shard returns shard i.
func (ns *Namespace) Shard(i int) *Shard { return ns.shards[i] }

func (ns *Namespace) shardFor(dirPath string) *Shard {
	return ns.shards[ShardOf(dirPath, len(ns.shards))]
}

// Open opens (optionally creating) dirPath/name.
func (ns *Namespace) Open(dirPath, name string, create, write bool, mode uint32) (*FileMeta, error) {
	return ns.shardFor(dirPath).Open(dirPath, name, create, write, mode)
}

// Lookup resolves dirPath/name; meta is nil for directories.
func (ns *Namespace) Lookup(dirPath, name string) (uint64, *FileMeta, error) {
	return ns.shardFor(dirPath).Lookup(dirPath, name)
}

// Mkdir creates directory dirPath/name: entry on the parent's shard,
// directory state on the child path's shard.
func (ns *Namespace) Mkdir(dirPath, name string) error {
	ino, err := ns.shardFor(dirPath).MkdirEntry(dirPath, name)
	if err != nil {
		return err
	}
	child := JoinPath(dirPath, name)
	ns.shardFor(child).AttachDir(child, ino)
	return nil
}

// Unlink removes file dirPath/name.
func (ns *Namespace) Unlink(dirPath, name string) (*FileMeta, error) {
	return ns.shardFor(dirPath).Unlink(dirPath, name)
}

// Readdir lists dirPath.
func (ns *Namespace) Readdir(dirPath string) ([]Dirent, error) {
	return ns.shardFor(dirPath).Readdir(dirPath)
}

// SetSize truncates (or extends) dirPath/name.
func (ns *Namespace) SetSize(dirPath, name string, size uint64) (*FileMeta, error) {
	return ns.shardFor(dirPath).SetSize(dirPath, name, size)
}

// Chmod updates dirPath/name's permission bits.
func (ns *Namespace) Chmod(dirPath, name string, mode uint32) (*FileMeta, error) {
	return ns.shardFor(dirPath).Chmod(dirPath, name, mode)
}

// Rename moves file srcDir/srcName to dstDir/dstName, displacing an
// existing destination file. Directory renames are unsupported (they would
// re-shard every descendant). Returns the displaced record, if any.
func (ns *Namespace) Rename(srcDir, srcName, dstDir, dstName string) (*FileMeta, error) {
	if srcDir == dstDir && srcName == dstName {
		_, err := ns.shardFor(srcDir).PeekFile(srcDir, srcName)
		return nil, err
	}
	if srcDir == dstDir {
		return ns.shardFor(srcDir).RenameLocal(srcDir, srcName, dstName)
	}
	src := ns.shardFor(srcDir)
	dst := ns.shardFor(dstDir)
	m, err := src.PeekFile(srcDir, srcName)
	if err != nil {
		return nil, err
	}
	// Link at the destination first (never invisible), then unlink the
	// source. Ingest a clone so a failed ingest leaves the source intact.
	displaced, err := dst.Ingest(dstDir, dstName, m.Clone())
	if err != nil {
		return nil, err
	}
	if _, err := src.RemoveSrc(srcDir, srcName); err != nil {
		return displaced, err
	}
	return displaced, nil
}

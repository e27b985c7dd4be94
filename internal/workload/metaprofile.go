package workload

import (
	"fmt"
	"math/rand"
)

// MetaOpKind enumerates the namespace operations of a metadata-heavy
// profile. The stream is stack-agnostic: drivers map each op onto whatever
// namespace API they measure (the aeomds client, a local FS, ...).
type MetaOpKind uint8

const (
	// MetaCreate creates Path (open with create, small write, close).
	MetaCreate MetaOpKind = iota
	// MetaOpenRead opens Path, reads its first bytes, closes — the
	// open-to-first-byte op.
	MetaOpenRead
	// MetaStat looks Path up without opening.
	MetaStat
	// MetaUnlink removes Path.
	MetaUnlink
	// MetaReaddir lists Dir.
	MetaReaddir
	// MetaRename moves Path to Dst.
	MetaRename
)

var metaOpNames = map[MetaOpKind]string{
	MetaCreate: "create", MetaOpenRead: "openread", MetaStat: "stat",
	MetaUnlink: "unlink", MetaReaddir: "readdir", MetaRename: "rename",
}

func (k MetaOpKind) String() string {
	if s, ok := metaOpNames[k]; ok {
		return s
	}
	return fmt.Sprintf("MetaOpKind(%d)", uint8(k))
}

// MetaOp is one operation of the stream, with paths fully resolved.
type MetaOp struct {
	Kind  MetaOpKind
	Path  string // create/openread/stat/unlink/rename source
	Dst   string // rename destination
	Dir   string // readdir target
	Bytes int    // payload bytes for create/openread data touches
}

// MetaProfile is one FXMARK-style metadata-heavy workload: a pre-created
// population and an operation mix. Client i works under "/p<i>" and owns
// every name in it. Streams are generated deterministically from (profile,
// client, seed) — byte-identical across runs and across backend shard
// counts.
type MetaProfile struct {
	// SetupFiles is the pre-created population per directory.
	SetupFiles int
	// Bytes is the data touched per create/openread (first-byte reads).
	Bytes int
	// Mix maps op kind → weight.
	Mix map[MetaOpKind]int
}

// MDMix is the private-directory mixed create/stat/rename/unlink/readdir
// profile: the general namespace workload driving every MDS code path.
func MDMix() *MetaProfile {
	return &MetaProfile{
		SetupFiles: 8, Bytes: 4096,
		Mix: map[MetaOpKind]int{
			MetaCreate: 30, MetaStat: 25, MetaRename: 15,
			MetaUnlink: 15, MetaOpenRead: 10, MetaReaddir: 5,
		},
	}
}

// ClientDir returns the directory client id works in.
func (p *MetaProfile) ClientDir(id int) string { return fmt.Sprintf("/p%d", id) }

// SetupFilePaths returns the files to pre-create before the run.
func (p *MetaProfile) SetupFilePaths(clients int) []string {
	var out []string
	for c := 0; c < clients; c++ {
		for i := 0; i < p.SetupFiles; i++ {
			out = append(out, fmt.Sprintf("%s/s%d", p.ClientDir(c), i))
		}
	}
	return out
}

// kinds returns the mix expanded into a deterministic weighted list,
// ordered by kind value so map iteration order cannot leak in.
func (p *MetaProfile) kinds() []MetaOpKind {
	var out []MetaOpKind
	for k := MetaCreate; k <= MetaRename; k++ {
		for i := 0; i < p.Mix[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}

// Ops generates client id's operation stream: n ops drawn from the mix
// with a per-(seed, client) generator. The generator tracks the names it
// has created so every op targets a live file (each client owns its
// directory, so the stream stays valid under any cross-client
// interleaving).
func (p *MetaProfile) Ops(id, n int, seed int64) []MetaOp {
	rng := rand.New(rand.NewSource(seed*1315423911 + int64(id)*2654435761 + 12345))
	dir := p.ClientDir(id)
	kinds := p.kinds()

	// live is the client-owned name set; setup files seed it so stats and
	// renames have targets immediately.
	var live []string
	for i := 0; i < p.SetupFiles; i++ {
		live = append(live, fmt.Sprintf("%s/s%d", dir, i))
	}
	fresh := 0
	nextName := func() string {
		fresh++
		return fmt.Sprintf("%s/c%d_%d", dir, id, fresh)
	}
	pickLive := func() (string, int) {
		if len(live) == 0 {
			return "", -1
		}
		i := rng.Intn(len(live))
		return live[i], i
	}

	out := make([]MetaOp, 0, n)
	for len(out) < n {
		k := kinds[rng.Intn(len(kinds))]
		switch k {
		case MetaCreate:
			name := nextName()
			live = append(live, name)
			out = append(out, MetaOp{Kind: MetaCreate, Path: name, Bytes: p.Bytes})
		case MetaOpenRead, MetaStat:
			path, i := pickLive()
			if i < 0 {
				continue // nothing to read yet; redraw
			}
			out = append(out, MetaOp{Kind: k, Path: path, Bytes: p.Bytes})
		case MetaUnlink:
			path, i := pickLive()
			if i < 0 {
				continue
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, MetaOp{Kind: MetaUnlink, Path: path})
		case MetaReaddir:
			out = append(out, MetaOp{Kind: MetaReaddir, Dir: dir})
		case MetaRename:
			path, i := pickLive()
			if i < 0 {
				continue
			}
			dst := nextName()
			live[i] = dst
			out = append(out, MetaOp{Kind: MetaRename, Path: path, Dst: dst})
		}
	}
	return out
}

package aeofs_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

const testDiskBlocks = 1 << 16 // 256MB at 4KB blocks

// fixture assembles machine + process + formatted AeoFS.
type fixture struct {
	m     *machine.Machine
	p     *machine.Process
	trust *aeofs.TrustLayer
	fs    *aeofs.FS
}

func newFixture(t *testing.T, cores int) *fixture {
	t.Helper()
	fx := newUnformatted(t, cores)
	fx.run(t, "mkfs", func(env *sim.Env) error {
		trust, err := aeofs.MkfsAndMount(env, fx.p.Driver, 0, testDiskBlocks,
			aeofs.MkfsOptions{NumJournals: 8, JournalBlocks: 256})
		if err != nil {
			return err
		}
		fx.trust = trust
		fx.fs = aeofs.NewFS(trust, fx.p.Driver, cores)
		return nil
	})
	return fx
}

// newUnformatted is a fixture whose machine and process are up but whose
// disk is not formatted.
func newUnformatted(t *testing.T, cores int) *fixture {
	t.Helper()
	m := machine.New(cores, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: testDiskBlocks})
	t.Cleanup(m.Eng.Shutdown)
	p, err := m.Launch("app", aeokern.Partition{Start: 0, Blocks: testDiskBlocks, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, p: p}
}

// run executes body as a task on core 0 and fails the test on error.
func (fx *fixture) run(t *testing.T, name string, body func(env *sim.Env) error) {
	t.Helper()
	var err error
	fx.m.Eng.Spawn(name, fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := fx.p.Driver.CreateQP(env); e != nil {
			err = e
			return
		}
		err = body(env)
	})
	fx.m.Run(0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func writeFile(env *sim.Env, fs *aeofs.FS, path string, data []byte) error {
	fd, err := fs.Open(env, path, aeofs.O_CREATE|aeofs.O_RDWR|aeofs.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := fs.Write(env, fd, data); err != nil {
		return err
	}
	return fs.Close(env, fd)
}

func readFile(env *sim.Env, fs *aeofs.FS, path string) ([]byte, error) {
	fd, err := fs.Open(env, path, aeofs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	st, err := fs.FStat(env, fd)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := fs.ReadAt(env, fd, buf, 0)
	if err != nil {
		return nil, err
	}
	if cerr := fs.Close(env, fd); cerr != nil {
		return nil, cerr
	}
	return buf[:n], nil
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// TestMkfsJournalFloor: a journal region too small to hold one forced
// commit is refused at format time. 1-block regions used to format, and the
// first create then panicked its task with "journal region 0 full".
func TestMkfsJournalFloor(t *testing.T) {
	for _, jb := range []uint64{1, 2, 3, 64} {
		t.Run(fmt.Sprint(jb), func(t *testing.T) {
			fx := newUnformatted(t, 1)
			fx.run(t, "mkfs", func(env *sim.Env) error {
				trust, err := aeofs.MkfsAndMount(env, fx.p.Driver, 0, testDiskBlocks,
					aeofs.MkfsOptions{NumJournals: 4, JournalBlocks: jb})
				if jb < 64 {
					if !errors.Is(err, aeofs.ErrInvalid) {
						return fmt.Errorf("%d-block regions: err %v, want ErrInvalid", jb, err)
					}
					return nil
				}
				if err != nil {
					return err
				}
				fs := aeofs.NewFS(trust, fx.p.Driver, 1)
				for i := 0; i < 40; i++ {
					fd, err := fs.Open(env, fmt.Sprintf("/f%02d", i), aeofs.O_CREATE|aeofs.O_RDWR)
					if err != nil {
						return err
					}
					if _, err := fs.Write(env, fd, pattern(8192, byte(i))); err != nil {
						return err
					}
					if err := fs.Fsync(env, fd); err != nil {
						return err
					}
					if err := fs.Close(env, fd); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fx := newFixture(t, 1)
	data := pattern(10000, 3)
	fx.run(t, "io", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/a.txt", data); err != nil {
			return err
		}
		got, err := readFile(env, fx.fs, "/a.txt")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("data mismatch: got %d bytes", len(got))
		}
		return nil
	})
}

func TestPartialAndCrossBlockIO(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "io", func(env *sim.Env) error {
		fd, err := fx.fs.Open(env, "/p", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		// Write 100 bytes straddling a block boundary.
		data := pattern(100, 9)
		if _, err := fx.fs.WriteAt(env, fd, data, aeofs.BlockSize-50); err != nil {
			return err
		}
		got := make([]byte, 100)
		if _, err := fx.fs.ReadAt(env, fd, got, aeofs.BlockSize-50); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return errors.New("cross-block read mismatch")
		}
		// The gap before the write must read zeros.
		head := make([]byte, 16)
		if _, err := fx.fs.ReadAt(env, fd, head, 0); err != nil {
			return err
		}
		for _, b := range head {
			if b != 0 {
				return errors.New("hole not zero")
			}
		}
		st, err := fx.fs.FStat(env, fd)
		if err != nil {
			return err
		}
		if st.Size != aeofs.BlockSize+50 {
			return fmt.Errorf("size = %d, want %d", st.Size, aeofs.BlockSize+50)
		}
		return fx.fs.Close(env, fd)
	})
}

func TestLargeFileMultipleIndexBlocks(t *testing.T) {
	fx := newFixture(t, 1)
	// > 511 blocks forces a second index block.
	data := pattern(600*aeofs.BlockSize, 1)
	fx.run(t, "io", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/big", data); err != nil {
			return err
		}
		got, err := readFile(env, fx.fs, "/big")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return errors.New("large file mismatch")
		}
		st, err := fx.fs.Stat(env, "/big")
		if err != nil {
			return err
		}
		if st.Blocks != 600 {
			return fmt.Errorf("Blocks = %d, want 600", st.Blocks)
		}
		return nil
	})
}

func TestMkdirReaddirUnlinkRmdir(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "meta", func(env *sim.Env) error {
		if err := fx.fs.Mkdir(env, "/d"); err != nil {
			return err
		}
		if err := fx.fs.Mkdir(env, "/d/e"); err != nil {
			return err
		}
		if err := writeFile(env, fx.fs, "/d/f1", pattern(10, 0)); err != nil {
			return err
		}
		if err := writeFile(env, fx.fs, "/d/f2", pattern(10, 1)); err != nil {
			return err
		}
		dents, err := fx.fs.ReadDir(env, "/d")
		if err != nil {
			return err
		}
		if len(dents) != 3 {
			return fmt.Errorf("readdir: %d entries, want 3", len(dents))
		}
		// Non-empty rmdir must fail.
		if err := fx.fs.Rmdir(env, "/d"); !errors.Is(err, aeofs.ErrNotEmpty) {
			return fmt.Errorf("rmdir non-empty: %v, want ErrNotEmpty", err)
		}
		// Unlink of a dir must fail.
		if err := fx.fs.Unlink(env, "/d/e"); !errors.Is(err, aeofs.ErrIsDir) {
			return fmt.Errorf("unlink dir: %v, want ErrIsDir", err)
		}
		// Rmdir of a file must fail.
		if err := fx.fs.Rmdir(env, "/d/f1"); !errors.Is(err, aeofs.ErrNotDir) {
			return fmt.Errorf("rmdir file: %v, want ErrNotDir", err)
		}
		if err := fx.fs.Unlink(env, "/d/f1"); err != nil {
			return err
		}
		if err := fx.fs.Unlink(env, "/d/f2"); err != nil {
			return err
		}
		if err := fx.fs.Rmdir(env, "/d/e"); err != nil {
			return err
		}
		if err := fx.fs.Rmdir(env, "/d"); err != nil {
			return err
		}
		if _, err := fx.fs.Stat(env, "/d"); !errors.Is(err, aeofs.ErrNotExist) {
			return fmt.Errorf("stat removed dir: %v, want ErrNotExist", err)
		}
		return nil
	})
}

// TestReadDirNameOrder: ReadDir lists a directory sorted by name, the same
// list on every call, whatever order the entries were created in — the
// directory's in-memory index is a Go map, whose walk order differs from
// walk to walk.
func TestReadDirNameOrder(t *testing.T) {
	const n = 100
	fx := newFixture(t, 1)
	fx.run(t, "readdir", func(env *sim.Env) error {
		if err := fx.fs.Mkdir(env, "/d"); err != nil {
			return err
		}
		want := make([]string, n)
		for i := range want {
			want[i] = fmt.Sprintf("f%03d", i)
			fd, err := fx.fs.Open(env, fmt.Sprintf("/d/f%03d", i*37%n), aeofs.O_CREATE|aeofs.O_RDWR)
			if err != nil {
				return err
			}
			if err := fx.fs.Close(env, fd); err != nil {
				return err
			}
		}
		for call := 1; call <= 2; call++ {
			dents, err := fx.fs.ReadDir(env, "/d")
			if err != nil {
				return err
			}
			got := make([]string, len(dents))
			for i, d := range dents {
				got[i] = d.Name
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("readdir call %d: %v, want %v", call, got, want)
			}
		}
		return nil
	})
}

func TestOpenFlagsSemantics(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "flags", func(env *sim.Env) error {
		if _, err := fx.fs.Open(env, "/missing", aeofs.O_RDONLY); !errors.Is(err, aeofs.ErrNotExist) {
			return fmt.Errorf("open missing: %v", err)
		}
		fd, err := fx.fs.Open(env, "/x", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			return err
		}
		fx.fs.Write(env, fd, pattern(100, 5))
		fx.fs.Close(env, fd)
		if _, err := fx.fs.Open(env, "/x", aeofs.O_CREATE|aeofs.O_EXCL|aeofs.O_RDWR); !errors.Is(err, aeofs.ErrExist) {
			return fmt.Errorf("O_EXCL on existing: %v", err)
		}
		// O_TRUNC empties the file.
		fd, err = fx.fs.Open(env, "/x", aeofs.O_RDWR|aeofs.O_TRUNC)
		if err != nil {
			return err
		}
		st, _ := fx.fs.FStat(env, fd)
		if st.Size != 0 {
			return fmt.Errorf("after O_TRUNC size = %d", st.Size)
		}
		fx.fs.Close(env, fd)
		// O_APPEND writes at the end.
		fd, err = fx.fs.Open(env, "/x", aeofs.O_WRONLY|aeofs.O_APPEND)
		if err != nil {
			return err
		}
		fx.fs.Write(env, fd, []byte("aaa"))
		fx.fs.Write(env, fd, []byte("bbb"))
		fx.fs.Close(env, fd)
		got, err := readFile(env, fx.fs, "/x")
		if err != nil {
			return err
		}
		if string(got) != "aaabbb" {
			return fmt.Errorf("append result %q", got)
		}
		// Writing a read-only fd fails.
		fd, _ = fx.fs.Open(env, "/x", aeofs.O_RDONLY)
		if _, err := fx.fs.Write(env, fd, []byte("no")); !errors.Is(err, aeofs.ErrBadFD) {
			return fmt.Errorf("write on O_RDONLY: %v", err)
		}
		return fx.fs.Close(env, fd)
	})
}

func TestRenameSemantics(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "rename", func(env *sim.Env) error {
		fx.fs.Mkdir(env, "/a")
		fx.fs.Mkdir(env, "/a/b")
		fx.fs.Mkdir(env, "/c")
		writeFile(env, fx.fs, "/a/f", pattern(64, 2))

		// Simple rename within a directory.
		if err := fx.fs.Rename(env, "/a/f", "/a/g"); err != nil {
			return err
		}
		if _, err := fx.fs.Stat(env, "/a/f"); !errors.Is(err, aeofs.ErrNotExist) {
			return fmt.Errorf("old name still present: %v", err)
		}
		// Cross-directory move.
		if err := fx.fs.Rename(env, "/a/g", "/c/g"); err != nil {
			return err
		}
		got, err := readFile(env, fx.fs, "/c/g")
		if err != nil || len(got) != 64 {
			return fmt.Errorf("moved file read: %v len=%d", err, len(got))
		}
		// Replacing an existing file.
		writeFile(env, fx.fs, "/c/h", pattern(10, 7))
		if err := fx.fs.Rename(env, "/c/g", "/c/h"); err != nil {
			return err
		}
		got, _ = readFile(env, fx.fs, "/c/h")
		if len(got) != 64 {
			return fmt.Errorf("replace: len=%d, want 64", len(got))
		}
		// Cycle: moving /a under /a/b must fail.
		if err := fx.fs.Rename(env, "/a", "/a/b/a2"); !errors.Is(err, aeofs.ErrLoop) {
			return fmt.Errorf("cycle rename: %v, want ErrLoop", err)
		}
		// Directory move updates "..": move /a/b into /c, then resolve
		// /c/b/.. back to /c.
		if err := fx.fs.Rename(env, "/a/b", "/c/b"); err != nil {
			return err
		}
		if _, err := fx.fs.Stat(env, "/c/b"); err != nil {
			return err
		}
		return nil
	})
}

func TestIllegalNamesRejected(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "names", func(env *sim.Env) error {
		// A name containing '/' can't even be expressed through the
		// path API; drive the trusted layer directly as a hostile
		// caller would.
		_, err := fx.trust.CreateInDir(env, fx.p.Driver, aeofs.RootIno, "evil/name", aeofs.TypeRegular)
		if !errors.Is(err, aeofs.ErrInvalid) {
			return fmt.Errorf("slash name: %v, want ErrInvalid", err)
		}
		_, err = fx.trust.CreateInDir(env, fx.p.Driver, aeofs.RootIno, "..", aeofs.TypeRegular)
		if !errors.Is(err, aeofs.ErrInvalid) {
			return fmt.Errorf("dotdot name: %v, want ErrInvalid", err)
		}
		long := string(bytes.Repeat([]byte("x"), 300))
		_, err = fx.trust.CreateInDir(env, fx.p.Driver, aeofs.RootIno, long, aeofs.TypeRegular)
		if !errors.Is(err, aeofs.ErrInvalid) {
			return fmt.Errorf("long name: %v, want ErrInvalid", err)
		}
		if fx.trust.ChecksFailed == 0 {
			return errors.New("eager checks did not count failures")
		}
		return nil
	})
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "trunc", func(env *sim.Env) error {
		data := pattern(3*aeofs.BlockSize, 4)
		writeFile(env, fx.fs, "/t", data)
		free0 := fx.trust.FreeBlocks()
		if err := fx.fs.Truncate(env, "/t", aeofs.BlockSize/2); err != nil {
			return err
		}
		if fx.trust.FreeBlocks() <= free0 {
			return errors.New("shrink freed no blocks")
		}
		got, _ := readFile(env, fx.fs, "/t")
		if !bytes.Equal(got, data[:aeofs.BlockSize/2]) {
			return errors.New("shrunk content mismatch")
		}
		// Grow back: the grown range must read zeros.
		if err := fx.fs.Truncate(env, "/t", aeofs.BlockSize*2); err != nil {
			return err
		}
		got, _ = readFile(env, fx.fs, "/t")
		if len(got) != 2*aeofs.BlockSize {
			return fmt.Errorf("grown size %d", len(got))
		}
		for i := aeofs.BlockSize / 2; i < len(got); i++ {
			if got[i] != 0 {
				return fmt.Errorf("grown range not zero at %d", i)
			}
		}
		return nil
	})
}

func TestUnlinkWhileOpen(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "orphan", func(env *sim.Env) error {
		data := pattern(2*aeofs.BlockSize, 8)
		writeFile(env, fx.fs, "/o", data)
		fd, err := fx.fs.Open(env, "/o", aeofs.O_RDONLY)
		if err != nil {
			return err
		}
		freeBefore := fx.trust.FreeBlocks()
		if err := fx.fs.Unlink(env, "/o"); err != nil {
			return err
		}
		if _, err := fx.fs.Stat(env, "/o"); !errors.Is(err, aeofs.ErrNotExist) {
			return fmt.Errorf("stat after unlink: %v", err)
		}
		// Data still readable through the open fd.
		buf := make([]byte, len(data))
		if _, err := fx.fs.ReadAt(env, fd, buf, 0); err != nil {
			return fmt.Errorf("read after unlink: %w", err)
		}
		if !bytes.Equal(buf, data) {
			return errors.New("orphan data mismatch")
		}
		if fx.trust.FreeBlocks() != freeBefore {
			return errors.New("blocks freed while still open")
		}
		if err := fx.fs.Close(env, fd); err != nil {
			return err
		}
		if fx.trust.FreeBlocks() <= freeBefore {
			return errors.New("blocks not freed after last close")
		}
		return nil
	})
}

func TestPersistenceAcrossRemount(t *testing.T) {
	fx := newFixture(t, 1)
	data := pattern(5*aeofs.BlockSize+123, 6)
	fx.run(t, "write", func(env *sim.Env) error {
		fx.fs.Mkdir(env, "/dir")
		if err := writeFile(env, fx.fs, "/dir/file", data); err != nil {
			return err
		}
		fd, _ := fx.fs.Open(env, "/dir/file", aeofs.O_RDONLY)
		defer fx.fs.Close(env, fd)
		// writeFile flushed on close; commit metadata too.
		f2, err := fx.fs.Open(env, "/dir/file", aeofs.O_RDWR)
		if err != nil {
			return err
		}
		if err := fx.fs.Fsync(env, f2); err != nil {
			return err
		}
		return fx.fs.Close(env, f2)
	})

	// A second process mounts the same partition fresh (no shared caches).
	p2, err := fx.m.Launch("proc2", aeokern.Partition{Start: 0, Blocks: testDiskBlocks, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		t.Fatal(err)
	}
	var rerr error
	fx.m.Eng.Spawn("remount", fx.m.Eng.Core(0), func(env *sim.Env) {
		if _, e := p2.Driver.CreateQP(env); e != nil {
			rerr = e
			return
		}
		trust2, e := aeofs.MountExisting(env, p2.Driver, 0)
		if e != nil {
			rerr = e
			return
		}
		fs2 := aeofs.NewFS(trust2, p2.Driver, 1)
		got, e := readFile(env, fs2, "/dir/file")
		if e != nil {
			rerr = e
			return
		}
		if !bytes.Equal(got, data) {
			rerr = errors.New("remounted content mismatch")
		}
	})
	fx.m.Run(0)
	if rerr != nil {
		t.Fatal(rerr)
	}
}

func TestSeekAndSequentialRead(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "seek", func(env *sim.Env) error {
		writeFile(env, fx.fs, "/s", pattern(1000, 11))
		fd, err := fx.fs.Open(env, "/s", aeofs.O_RDONLY)
		if err != nil {
			return err
		}
		defer fx.fs.Close(env, fd)
		a := make([]byte, 400)
		n1, _ := fx.fs.Read(env, fd, a)
		b := make([]byte, 700)
		n2, _ := fx.fs.Read(env, fd, b)
		if n1 != 400 || n2 != 600 {
			return fmt.Errorf("sequential reads %d,%d want 400,600", n1, n2)
		}
		if err := fx.fs.Seek(env, fd, 100); err != nil {
			return err
		}
		c := make([]byte, 10)
		fx.fs.Read(env, fd, c)
		want := pattern(1000, 11)[100:110]
		if !bytes.Equal(c, want) {
			return errors.New("post-seek read mismatch")
		}
		return nil
	})
}

func TestBadFDErrors(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "badfd", func(env *sim.Env) error {
		if _, err := fx.fs.Read(env, 999999, make([]byte, 1)); !errors.Is(err, aeofs.ErrBadFD) {
			return fmt.Errorf("read bad fd: %v", err)
		}
		if err := fx.fs.Close(env, 12345); !errors.Is(err, aeofs.ErrBadFD) {
			return fmt.Errorf("close bad fd: %v", err)
		}
		fd, _ := fx.fs.Open(env, "/q", aeofs.O_CREATE|aeofs.O_RDWR)
		fx.fs.Close(env, fd)
		if err := fx.fs.Close(env, fd); !errors.Is(err, aeofs.ErrBadFD) {
			return fmt.Errorf("double close: %v", err)
		}
		return nil
	})
}

func TestStatFields(t *testing.T) {
	fx := newFixture(t, 1)
	fx.run(t, "stat", func(env *sim.Env) error {
		writeFile(env, fx.fs, "/st", pattern(5000, 1))
		st, err := fx.fs.Stat(env, "/st")
		if err != nil {
			return err
		}
		if st.Type != aeofs.TypeRegular || st.Size != 5000 || st.Blocks != 2 || st.Nlink != 1 {
			return fmt.Errorf("stat = %+v", st)
		}
		fx.fs.Mkdir(env, "/sd")
		st, err = fx.fs.Stat(env, "/sd")
		if err != nil {
			return err
		}
		if st.Type != aeofs.TypeDir || st.Nlink != 2 {
			return fmt.Errorf("dir stat = %+v", st)
		}
		// Creating a subdir bumps the parent's nlink.
		fx.fs.Mkdir(env, "/sd/sub")
		st, _ = fx.fs.Stat(env, "/sd")
		if st.Nlink != 3 {
			return fmt.Errorf("parent nlink = %d, want 3", st.Nlink)
		}
		return nil
	})
}

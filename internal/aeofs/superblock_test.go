package aeofs_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"aeolia/internal/aeofs"
	"aeolia/internal/sim"
)

// remountCorrupted formats the test volume, writes and syncs a file, then
// rewrites the 64-bit superblock field at byte offset off to v, remounts,
// and, if the mount succeeds, writes and syncs a second file. Mount and Fsck
// must both refuse the volume with ErrCorrupt naming field.
func remountCorrupted(t *testing.T, field string, off int, v uint64) {
	t.Helper()
	fx := newFixture(t, 1)
	fx.run(t, "seed", func(env *sim.Env) error {
		if err := writeFile(env, fx.fs, "/f", pattern(3*aeofs.BlockSize, 1)); err != nil {
			return err
		}
		return fx.trust.Sync(env, fx.p.Driver)
	})
	fx.run(t, "corrupt", func(env *sim.Env) error {
		buf := make([]byte, aeofs.BlockSize)
		var err error
		fx.p.Driver.Gate().Call(env, fx.p.Proc.Thread, func() {
			if err = fx.p.Driver.ReadPriv(env, 0, 1, buf); err != nil {
				return
			}
			binary.LittleEndian.PutUint64(buf[off:], v)
			err = fx.p.Driver.WritePriv(env, 0, 1, buf)
		})
		return err
	})
	var mountErr, fsckErr error
	fx.run(t, "remount", func(env *sim.Env) error {
		var trust *aeofs.TrustLayer
		if trust, mountErr = aeofs.MountExisting(env, fx.p.Driver, 0); mountErr == nil {
			fs := aeofs.NewFS(trust, fx.p.Driver, 1)
			if err := writeFile(env, fs, "/g", pattern(aeofs.BlockSize, 2)); err != nil {
				return err
			}
			if err := trust.Sync(env, fx.p.Driver); err != nil {
				return err
			}
		}
		_, fsckErr = aeofs.Fsck(env, fx.p.Driver, 0)
		return nil
	})
	for i, err := range []error{mountErr, fsckErr} {
		if !errors.Is(err, aeofs.ErrCorrupt) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s with %s = %d: err %v, want ErrCorrupt naming %s",
				[]string{"MountExisting", "Fsck"}[i], field, v, err, field)
		}
	}
}

// TestMountRejectsZeroJournals: NumJournals = 0 used to panic the mounting
// task with an integer divide by zero.
func TestMountRejectsZeroJournals(t *testing.T) {
	remountCorrupted(t, "NumJournals", 88, 0)
}

// TestMountRejectsInodeBitmapAtZero: InodeBmStart = 0 places the inode
// bitmap on the superblock; it used to panic the mounting task on a nil map.
func TestMountRejectsInodeBitmapAtZero(t *testing.T) {
	remountCorrupted(t, "InodeBmStart", 24, 0)
}

// TestMountRejectsHugeTotalBlocks: TotalBlocks = 2^40 used to size a
// 128 GiB block bitmap, a runtime fatal that killed the whole process.
func TestMountRejectsHugeTotalBlocks(t *testing.T) {
	remountCorrupted(t, "TotalBlocks", 8, 1<<40)
}

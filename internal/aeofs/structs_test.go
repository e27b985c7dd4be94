package aeofs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---- radix tree ----

func TestRadixBasic(t *testing.T) {
	var tr radixTree
	if tr.Get(0) != nil {
		t.Fatal("empty tree returned value")
	}
	tr.Set(0, "a")
	tr.Set(63, "b")
	tr.Set(64, "c")
	tr.Set(1<<30, "d")
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for idx, want := range map[uint64]string{0: "a", 63: "b", 64: "c", 1 << 30: "d"} {
		if got := tr.Get(idx); got != want {
			t.Fatalf("Get(%d) = %v, want %v", idx, got, want)
		}
	}
	if tr.Get(65) != nil {
		t.Fatal("absent key returned value")
	}
	if v := tr.Delete(64); v != "c" {
		t.Fatalf("Delete = %v", v)
	}
	if tr.Get(64) != nil || tr.Len() != 3 {
		t.Fatal("delete did not remove")
	}
	// Deleting everything empties the root.
	tr.Delete(0)
	tr.Delete(63)
	tr.Delete(1 << 30)
	if tr.Len() != 0 || tr.Get(0) != nil {
		t.Fatal("tree not empty after deleting all")
	}
}

func TestRadixWalkOrder(t *testing.T) {
	var tr radixTree
	idxs := []uint64{5, 1, 100000, 64, 63, 4095, 70}
	for _, i := range idxs {
		tr.Set(i, i)
	}
	var got []uint64
	tr.Walk(func(i uint64, v any) bool {
		got = append(got, i)
		return true
	})
	want := []uint64{1, 5, 63, 64, 70, 4095, 100000}
	if len(got) != len(want) {
		t.Fatalf("walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", got, want)
		}
	}
}

func TestRadixQuickAgainstMap(t *testing.T) {
	var tr radixTree
	model := map[uint64]int{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		idx := uint64(rng.Intn(1 << 18))
		switch rng.Intn(3) {
		case 0, 1:
			tr.Set(idx, i)
			model[idx] = i
		case 2:
			tr.Delete(idx)
			delete(model, idx)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	for idx, v := range model {
		if got := tr.Get(idx); got != v {
			t.Fatalf("Get(%d) = %v, want %d", idx, got, v)
		}
	}
}

// ---- dirent encoding ----

func TestDirentRoundTrip(t *testing.T) {
	f := func(ino uint64, rawName []byte) bool {
		if len(rawName) == 0 || len(rawName) > MaxNameLen {
			return true
		}
		name := make([]byte, len(rawName))
		for i, b := range rawName {
			if b == 0 || b == '/' {
				b = 'x'
			}
			name[i] = b
		}
		if ino == 0 {
			ino = 1
		}
		buf := make([]byte, BlockSize)
		n := encodeDirent(buf, ino, string(name))
		if n != direntSize(string(name)) || n%4 != 0 {
			return false
		}
		found := false
		walkDirents(buf, func(off int, gotIno uint64, gotName string) bool {
			found = gotIno == ino && gotName == string(name) && off == 0
			return false
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkDirentsSkipsTombstones(t *testing.T) {
	buf := make([]byte, BlockSize)
	n1 := encodeDirent(buf, 10, "alive")
	n2 := encodeDirent(buf[n1:], 11, "doomed")
	encodeDirent(buf[n1+n2:], 12, "also-alive")
	// Tombstone the middle record.
	for i := 0; i < 8; i++ {
		buf[n1+i] = 0
	}
	var names []string
	walkDirents(buf, func(off int, ino uint64, name string) bool {
		if ino != 0 {
			names = append(names, name)
		}
		return true
	})
	if len(names) != 2 || names[0] != "alive" || names[1] != "also-alive" {
		t.Fatalf("names = %v", names)
	}
}

// ---- inode + superblock encoding ----

func TestInodeEncodeDecodeQuick(t *testing.T) {
	f := func(ino, size, blocks, first uint64, mode, nlink, owner uint32, mt int64) bool {
		in := Inode{
			Ino: ino, Type: TypeRegular, Mode: mode, Nlink: nlink,
			Owner: owner, Size: size, Blocks: blocks, FirstIndex: first, MTimeNS: mt,
		}
		var buf [InodeSize]byte
		in.encode(buf[:])
		return decodeInode(buf[:]) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := Superblock{
		Magic: Magic, BlockSize: BlockSize, Start: 7, TotalBlocks: 999,
		NumInodes: 512, InodeBmStart: 8, InodeBmBlocks: 1, BlockBmStart: 9,
		BlockBmBlocks: 2, ITableStart: 11, ITableBlocks: 16, JournalStart: 27,
		JournalArea: 128, NumJournals: 4, DataStart: 539,
	}
	buf := make([]byte, BlockSize)
	sb.encode(buf)
	got, err := decodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("got %+v want %+v", got, sb)
	}
	buf[0] ^= 0xff
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// ---- bitmap ----

func TestBitmapAllocReleaseEncode(t *testing.T) {
	bm := newBitmap(100000)
	if bm.Free() != 100000 {
		t.Fatalf("Free = %d", bm.Free())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		bit, ok := bm.alloc(nil, 0)
		if !ok {
			t.Fatal("alloc failed with free space")
		}
		if seen[bit] {
			t.Fatalf("double allocation of bit %d", bit)
		}
		seen[bit] = true
	}
	if bm.Free() != 95000 {
		t.Fatalf("Free = %d, want 95000", bm.Free())
	}
	for bit := range seen {
		bm.release(nil, bit)
	}
	if bm.Free() != 100000 {
		t.Fatalf("Free after release = %d", bm.Free())
	}
	// Encode/load round trip.
	for i := uint64(0); i < 100; i++ {
		bm.set(i * 997)
	}
	nBlocks := (100000 + BlockSize*8 - 1) / (BlockSize * 8)
	var blocks [][]byte
	for i := uint64(0); i < uint64(nBlocks); i++ {
		b := make([]byte, BlockSize)
		bm.encodeBlock(i, b)
		blocks = append(blocks, b)
	}
	bm2 := newBitmap(100000)
	bm2.loadFrom(blocks)
	for i := uint64(0); i < 100000; i++ {
		if bm.test(i) != bm2.test(i) {
			t.Fatalf("bit %d mismatch after round trip", i)
		}
	}
}

func TestBitmapExhaustion(t *testing.T) {
	bm := newBitmap(64)
	for i := 0; i < 64; i++ {
		if _, ok := bm.alloc(nil, 0); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if _, ok := bm.alloc(nil, 0); ok {
		t.Fatal("alloc succeeded on a full bitmap")
	}
}

// ---- journal records ----

func TestBatchHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, BlockSize)
	blks := []uint64{5, 9, 1 << 40}
	encodeBatchHeader(buf, 77, 123, 3, blks)
	seq, commit, nbatches, got, ok := decodeBatchHeader(buf)
	if !ok || seq != 77 || commit != 123 || nbatches != 3 || len(got) != 3 {
		t.Fatalf("decode = %d %d %d %v %v", seq, commit, nbatches, got, ok)
	}
	for i := range blks {
		if got[i] != blks[i] {
			t.Fatalf("blks = %v", got)
		}
	}
}

// The merge key is each image's own stamp, not its transaction's: the
// second transaction below holds the newest image of block 1 and the
// oldest of block 3.
func TestMergeTxnsLatestWins(t *testing.T) {
	img := func(b byte) []byte { return bytes.Repeat([]byte{b}, 8) }
	txns := []txn{
		{writes: []txnWrite{{blk: 1, stamp: 10, image: img(1)}, {blk: 2, stamp: 11, image: img(2)}}},
		{writes: []txnWrite{{blk: 1, stamp: 30, image: img(9)}, {blk: 3, stamp: 5, image: img(7)}}},
		{writes: []txnWrite{{blk: 1, stamp: 20, image: img(5)}, {blk: 3, stamp: 21, image: img(3)}}},
	}
	m := mergeTxns(txns)
	if len(m) != 3 {
		t.Fatalf("merged %d blocks", len(m))
	}
	if m[1].image[0] != 9 || m[1].stamp != 30 {
		t.Fatalf("blk 1 image = %d, want latest (9)", m[1].image[0])
	}
	if m[2].image[0] != 2 || m[3].image[0] != 3 {
		t.Fatal("other blocks wrong")
	}
}

// A region whose every image lost the merge contributes nothing to the
// commit: no transaction is kept, so no batch (and no header) is laid out
// for it, and a transaction that loses only some images keeps the rest.
func TestKeepWinnersDropsSupersededRegion(t *testing.T) {
	img := func(b byte) []byte { return bytes.Repeat([]byte{b}, 8) }
	older := []txn{
		{writes: []txnWrite{{blk: 1, stamp: 1, image: img(1)}, {blk: 2, stamp: 2, image: img(2)}}},
		{writes: []txnWrite{{blk: 1, stamp: 3, image: img(3)}}},
	}
	newer := []txn{
		{writes: []txnWrite{{blk: 1, stamp: 4, image: img(4)}, {blk: 2, stamp: 5, image: img(5)}, {blk: 9, stamp: 6, image: img(6)}}},
		{writes: []txnWrite{{blk: 9, stamp: 7, image: img(7)}}},
	}
	winners := mergeTxns(append(append([]txn(nil), older...), newer...))
	if kept := keepWinners(older, winners); len(kept) != 0 {
		t.Fatalf("all-superseded region kept %d transaction(s)", len(kept))
	}
	if groups, err := splitBatches(nil); err != nil || len(groups) != 0 {
		t.Fatalf("no kept transactions must lay out no batch, got %d (%v)", len(groups), err)
	}
	kept := keepWinners(newer, winners)
	if len(kept) != 2 || len(kept[0].writes) != 2 || kept[0].writes[0].stamp != 4 || kept[0].writes[1].stamp != 5 || kept[1].writes[0].stamp != 7 {
		t.Fatalf("kept = %+v, want {4,5} and {7}", kept)
	}
}

// The forced-commit threshold is a third of the region but never more than
// one batch holds, whatever the region's size.
func TestCommitThresholdClamped(t *testing.T) {
	for blocks, want := range map[uint64]int{64: 21, 256: 85, 1524: 508, 1527: batchMaxBlocks, 4096: batchMaxBlocks} {
		if got := (&journalRegion{blocks: blocks}).commitThreshold(); got != want {
			t.Errorf("region of %d blocks: threshold %d, want %d", blocks, got, want)
		}
	}
}

func TestValidateName(t *testing.T) {
	bad := []string{"", ".", "..", "a/b", "a\x00b", string(bytes.Repeat([]byte("n"), 256))}
	for _, n := range bad {
		if ValidateName(n) == nil {
			t.Errorf("ValidateName(%q) accepted", n)
		}
	}
	good := []string{"a", "file.txt", "...", "a b", string(bytes.Repeat([]byte("n"), 255))}
	for _, n := range good {
		if err := ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v", n, err)
		}
	}
}

func TestPermHelpers(t *testing.T) {
	in := Inode{Owner: 7, Mode: ModeOwnerRead | ModeOwnerWrite | ModeWorldRead}
	if !canRead(&in, 7) || !canWrite(&in, 7) {
		t.Fatal("owner access broken")
	}
	if !canRead(&in, 8) {
		t.Fatal("world read broken")
	}
	if canWrite(&in, 8) {
		t.Fatal("world write allowed without bit")
	}
}

// Command mkfs.aeofs formats an AeoFS volume on a simulated NVMe device and
// prints the resulting layout — the Figure 9 regions. It exists to make the
// on-disk format inspectable from the command line; the simulated device is
// created fresh (there is no persistent disk image in the simulation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main over explicit streams; it returns the exit code: 0, 1 when
// formatting fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkfs.aeofs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	blocks := fs.Uint64("blocks", 1<<18, "partition size in 4KB blocks")
	journals := fs.Uint64("journals", 64, "number of per-thread journal regions")
	journalBlocks := fs.Uint64("journal-blocks", 1024, "blocks per journal region (at least 64)")
	inodes := fs.Uint64("inodes", 0, "number of inodes (0 = blocks/8)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m := machine.New(1, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: *blocks})
	p, err := m.Launch("mkfs", aeokern.Partition{Start: 0, Blocks: *blocks, Writable: true},
		aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		fmt.Fprintln(stderr, "mkfs.aeofs:", err)
		return 1
	}

	var sb aeofs.Superblock
	var mkErr error
	m.Eng.Spawn("mkfs", m.Eng.Core(0), func(env *sim.Env) {
		if _, e := p.Driver.CreateQP(env); e != nil {
			mkErr = e
			return
		}
		p.Gate.Call(env, p.Proc.Thread, func() {
			sb, mkErr = aeofs.Mkfs(env, p.Driver, 0, *blocks, aeofs.MkfsOptions{
				NumInodes:     *inodes,
				NumJournals:   *journals,
				JournalBlocks: *journalBlocks,
			})
		})
	})
	m.Eng.Run(0)
	if mkErr != nil {
		fmt.Fprintln(stderr, "mkfs.aeofs:", mkErr)
		return 1
	}

	fmt.Fprintf(stdout, "AeoFS volume formatted (%d blocks, %.1f MiB)\n",
		sb.TotalBlocks, float64(sb.TotalBlocks)*aeofs.BlockSize/(1<<20))
	fmt.Fprintf(stdout, "  superblock:     block %d\n", sb.Start)
	fmt.Fprintf(stdout, "  inode bitmap:   blocks %d..%d (%d inodes)\n", sb.InodeBmStart, sb.InodeBmStart+sb.InodeBmBlocks-1, sb.NumInodes)
	fmt.Fprintf(stdout, "  block bitmap:   blocks %d..%d\n", sb.BlockBmStart, sb.BlockBmStart+sb.BlockBmBlocks-1)
	fmt.Fprintf(stdout, "  inode table:    blocks %d..%d\n", sb.ITableStart, sb.ITableStart+sb.ITableBlocks-1)
	fmt.Fprintf(stdout, "  journal area:   blocks %d..%d (%d regions x %d blocks)\n",
		sb.JournalStart, sb.DataStart-1, sb.NumJournals, sb.JournalArea)
	fmt.Fprintf(stdout, "  data area:      blocks %d..%d\n", sb.DataStart, sb.Start+sb.TotalBlocks-1)
	return 0
}

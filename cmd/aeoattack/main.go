// Command aeoattack runs the paper's §8 protection validation: 96
// handcrafted attacks from an untrusted tenant against Aeolia's trusted
// entities, over a victim tenant's data. A defended system blocks them all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aeolia/internal/aeodriver"
	"aeolia/internal/aeofs"
	"aeolia/internal/aeokern"
	"aeolia/internal/attack"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main over explicit streams; it returns the exit code: 0 when every
// attack is blocked, 1 when one lands or the setup fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aeoattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print every attack outcome")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "aeoattack:", err)
		return 1
	}

	const blocks = 1 << 16
	m := machine.New(2, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: blocks})
	part := aeokern.Partition{Start: 0, Blocks: blocks, Writable: true}
	victim, err := m.Launch("victim", part, aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		return fatal(err)
	}
	attacker, err := m.Launch("attacker", part, aeodriver.Config{Mode: aeodriver.ModeUserInterrupt})
	if err != nil {
		return fatal(err)
	}
	ctx := &attack.Context{M: m, Proc: attacker, Victim: victim, VictimFile: "/victim/secret.dat"}

	var serr error
	m.Eng.Spawn("victim", m.Eng.Core(0), func(env *sim.Env) {
		if _, e := victim.Driver.CreateQP(env); e != nil {
			serr = e
			return
		}
		trust, e := aeofs.MkfsAndMount(env, victim.Driver, 0, blocks, aeofs.MkfsOptions{NumJournals: 8, JournalBlocks: 256})
		if e != nil {
			serr = e
			return
		}
		ctx.Trust = trust
		vfs := aeofs.NewFS(trust, victim.Driver, 2)
		vfs.Mkdir(env, "/victim")
		fd, e := vfs.Open(env, ctx.VictimFile, aeofs.O_CREATE|aeofs.O_RDWR)
		if e != nil {
			serr = e
			return
		}
		vfs.Write(env, fd, make([]byte, 2*aeofs.BlockSize))
		vfs.Fsync(env, fd)
		vfs.Close(env, fd)
		st, e := vfs.Stat(env, ctx.VictimFile)
		if e != nil {
			serr = e
			return
		}
		ctx.VictimIno = st.Ino
	})
	m.Eng.Run(0)
	if serr != nil {
		return fatal(serr)
	}
	ctx.FS = aeofs.NewFS(ctx.Trust, attacker.Driver, 2)

	var results []attack.Result
	m.Eng.Spawn("attacker", m.Eng.Core(1), func(env *sim.Env) {
		if _, e := attacker.Driver.CreateQP(env); e != nil {
			serr = e
			return
		}
		if e := ctx.Trust.AttachProcess(env, attacker.Driver); e != nil {
			serr = e
			return
		}
		ctx.Env = env
		results = attack.RunAll(ctx)
	})
	m.Eng.Run(0)
	if serr != nil {
		return fatal(serr)
	}

	blocked, byCat := 0, map[string]int{}
	for _, r := range results {
		if r.Blocked {
			blocked++
			byCat[r.Attack.Category]++
			if *verbose {
				fmt.Fprintf(stdout, "  BLOCKED [%s] %-45s %s\n", r.Attack.Category, r.Attack.Name, r.Detail)
			}
		} else {
			fmt.Fprintf(stdout, "  !!! SUCCEEDED [%s] %s\n", r.Attack.Category, r.Attack.Name)
		}
	}
	fmt.Fprintf(stdout, "aeoattack: blocked %d/%d attacks (%v)\n", blocked, len(results), byCat)
	if blocked != len(results) {
		return 1
	}
	return 0
}

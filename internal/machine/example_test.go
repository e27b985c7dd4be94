package machine_test

import (
	"fmt"
	"log"

	"aeolia/internal/aeofs"
	"aeolia/internal/machine"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// Example brings up a simulated Aeolia machine, mounts AeoFS, and does
// ordinary file I/O through the userspace-interrupt storage stack.
func Example() {
	// A 2-core machine with a P5800X-modeled NVMe SSD.
	m := machine.New(2, nvme.Config{BlockSize: aeofs.BlockSize, NumBlocks: 1 << 16})

	// BuildFS launches a process through the privileged launcher (MPK
	// trusted-entity verification), opens AeoDriver in user-interrupt
	// mode, formats the volume, and mounts the trust layer.
	fi, err := m.BuildFS(machine.KindAeoFS, machine.FSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fs := fi.AeoFS

	// All application code runs as tasks on simulated cores.
	m.Eng.Spawn("app", m.Eng.Core(0), func(env *sim.Env) {
		// Each task needs its own NVMe queue pair (create_qp).
		if _, err := fi.Proc.Driver.CreateQP(env); err != nil {
			log.Fatal(err)
		}
		if err := fs.Mkdir(env, "/hello"); err != nil {
			log.Fatal(err)
		}
		fd, err := fs.Open(env, "/hello/world.txt", aeofs.O_CREATE|aeofs.O_RDWR)
		if err != nil {
			log.Fatal(err)
		}
		msg := []byte("written through user interrupts, not polling!")
		if _, err := fs.Write(env, fd, msg); err != nil {
			log.Fatal(err)
		}
		if err := fs.Fsync(env, fd); err != nil {
			log.Fatal(err)
		}

		buf := make([]byte, len(msg))
		if _, err := fs.ReadAt(env, fd, buf, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read back: %q\n", buf)

		st, _ := fs.Stat(env, "/hello/world.txt")
		fmt.Printf("stat: ino=%d size=%dB type=%v\n", st.Ino, st.Size, st.Type)
		fs.Close(env, fd)

		// Virtual time, not wall time: the run is deterministic.
		fmt.Printf("virtual time elapsed: %v\n", env.Now())
	})
	m.Eng.Run(0)

	fmt.Printf("device: %d reads, %d writes, %d flushes\n",
		m.Dev.ReadOps, m.Dev.WriteOps, m.Dev.FlushOps)
	// Output:
	// read back: "written through user interrupts, not polling!"
	// stat: ino=3 size=45B type=regular
	// virtual time elapsed: 2.341801ms
	// device: 133 reads, 327 writes, 2 flushes
}

package nvme

import (
	"fmt"
	"sort"
	"time"

	"aeolia/internal/sim"
	"aeolia/internal/trace"
)

const chunkBlocks = 1024 // sparse-store allocation unit, in blocks

// Config describes a simulated device.
type Config struct {
	BlockSize int    // logical block size in bytes (512 or 4096)
	NumBlocks uint64 // device capacity in blocks
	Model     LatencyModel
	// MaxQueuePairs bounds CreateQueuePair (default 128).
	MaxQueuePairs int
}

// Injector intercepts commands for fault injection. Implementations return
// the fault (if any) to apply to the command; the zero CommandFault means
// "execute normally". Installed via Device.SetInjector; the production path
// pays one nil-check when no injector is present.
type Injector interface {
	InjectCommand(e *SubmissionEntry) CommandFault
}

// CommandFault describes one injected command-level fault.
type CommandFault struct {
	// Status, if non-success, completes the command with this status
	// without (fully) executing it.
	Status Status
	// TornBlocks only applies to failing writes (Status != success): the
	// first TornBlocks blocks of the transfer reach the device's volatile
	// write cache before the command errors out, modeling a transfer torn
	// mid-flight. The failed command makes no durability promise, so a
	// retry simply overwrites the partial data.
	TornBlocks uint32
	// ExtraLatency delays the command's completion (latency spike). It
	// applies to both successful and failing commands.
	ExtraLatency time.Duration
}

// Device is a simulated NVMe SSD bound to a sim.Engine. All methods must be
// called from engine context (task bodies or event callbacks).
type Device struct {
	eng *sim.Engine
	cfg Config

	store map[uint64][]byte // chunk index -> chunk data

	// cache is the volatile write cache: completed-but-unflushed block
	// images, dropped (or torn) at power loss. OpFlush destages it into
	// the durable store. Reads overlay it, so completed writes are always
	// visible to subsequent commands.
	cache map[uint64][]byte
	// freeImgs holds the images of blocks that left the cache (destage,
	// power loss) for writeRaw to reuse.
	freeImgs [][]byte

	qps    map[int]*QueuePair
	nextQP int

	// channelFree[i] is when device channel i becomes free.
	channelFree []time.Duration
	// busReadFree / busWriteFree serialize the shared internal bus.
	busReadFree  time.Duration
	busWriteFree time.Duration

	// jitterState drives the deterministic per-command service-time
	// jitter (a small xorshift PRNG seeded at creation).
	jitterState uint64

	inj Injector

	// freeCmds holds the command records not in flight.
	freeCmds []*command

	// Stats.
	ReadOps    uint64
	WriteOps   uint64
	FlushOps   uint64
	BytesRead  uint64
	BytesWrite uint64
	// Injected-fault stats.
	InjectedErrors  uint64
	InjectedTorn    uint64
	InjectedLatency uint64
	// PowerCycles counts CrashAndReset invocations.
	PowerCycles uint64
}

// NewDevice creates a device on the engine.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.NumBlocks == 0 {
		cfg.NumBlocks = 1 << 20
	}
	if cfg.Model.Channels <= 0 {
		cfg.Model = P5800X()
	}
	if cfg.MaxQueuePairs <= 0 {
		cfg.MaxQueuePairs = 128
	}
	return &Device{
		eng:         eng,
		cfg:         cfg,
		store:       make(map[uint64][]byte),
		cache:       make(map[uint64][]byte),
		qps:         make(map[int]*QueuePair),
		channelFree: make([]time.Duration, cfg.Model.Channels),
		jitterState: 0x9E3779B97F4A7C15,
	}
}

// SetInjector installs (or, with nil, removes) the fault injector.
func (d *Device) SetInjector(inj Injector) { d.inj = inj }

// jitter returns a deterministic per-command service-time perturbation in
// [-2%, +2%] of d. Real flash media have this much variance and more; it
// also keeps the simulation from phase-locking periodic workloads.
func (d *Device) jitter(dur time.Duration) time.Duration {
	x := d.jitterState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	d.jitterState = x
	// Map to [-0.02, +0.02].
	frac := (float64(x%4096)/4096 - 0.5) * 0.04
	return time.Duration(float64(dur) * frac)
}

// Engine returns the engine the device is bound to.
func (d *Device) Engine() *sim.Engine { return d.eng }

// BlockSize returns the logical block size in bytes.
func (d *Device) BlockSize() int { return d.cfg.BlockSize }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() uint64 { return d.cfg.NumBlocks }

// chunk returns the backing slice for the chunk containing blk, allocating
// it if alloc is set (nil otherwise).
func (d *Device) chunk(blk uint64, alloc bool) []byte {
	ci := blk / chunkBlocks
	c := d.store[ci]
	if c == nil && alloc {
		c = make([]byte, chunkBlocks*d.cfg.BlockSize)
		d.store[ci] = c
	}
	return c
}

// readRaw copies blocks [slba, slba+n) into buf, overlaying the volatile
// write cache (a completed write is visible to later reads even before a
// flush makes it durable).
func (d *Device) readRaw(slba uint64, n uint32, buf []byte) {
	bs := uint64(d.cfg.BlockSize)
	for i := uint64(0); i < uint64(n); i++ {
		blk := slba + i
		dst := buf[i*bs : (i+1)*bs]
		if img, ok := d.cache[blk]; ok {
			copy(dst, img)
			continue
		}
		c := d.chunk(blk, false)
		if c == nil {
			for j := range dst {
				dst[j] = 0
			}
			continue
		}
		off := (blk % chunkBlocks) * bs
		copy(dst, c[off:off+bs])
	}
}

// writeRaw places buf's blocks into the volatile write cache; they become
// durable when a flush destages them.
func (d *Device) writeRaw(slba uint64, n uint32, buf []byte) {
	bs := uint64(d.cfg.BlockSize)
	for i := uint64(0); i < uint64(n); i++ {
		blk := slba + i
		img := d.cache[blk]
		if img == nil {
			if n := len(d.freeImgs); n > 0 {
				img, d.freeImgs = d.freeImgs[n-1], d.freeImgs[:n-1]
			} else {
				img = make([]byte, bs)
			}
			d.cache[blk] = img
		}
		copy(img, buf[i*bs:(i+1)*bs])
	}
}

// writeDurable copies a block image straight into the durable store.
func (d *Device) writeDurable(blk uint64, img []byte) {
	bs := uint64(d.cfg.BlockSize)
	c := d.chunk(blk, true)
	off := (blk % chunkBlocks) * bs
	copy(c[off:off+bs], img)
}

// destage makes every cached write durable (the effect of OpFlush).
func (d *Device) destage() {
	for blk, img := range d.cache {
		d.writeDurable(blk, img)
		d.uncache(blk, img)
	}
}

// uncache drops blk from the write cache and keeps its image for the next
// newly cached block: nothing but d.cache ever references an image, and
// writeRaw overwrites all of it.
func (d *Device) uncache(blk uint64, img []byte) {
	delete(d.cache, blk)
	d.freeImgs = append(d.freeImgs, img)
}

// CachedBlocks returns the number of completed-but-unflushed blocks.
func (d *Device) CachedBlocks() int { return len(d.cache) }

// CrashAndReset simulates power loss: the volatile write cache is lost and
// the device restarts with only durable (flushed) state. For each cached
// block, resolve decides what the medium holds afterwards: it receives the
// block number, the durable image, and the cached (lost) image, and returns
// the surviving image — return durable for a clean drop, cached if the
// in-flight write happened to complete, or any mix for a torn write. A nil
// resolve drops every cached block (the most adversarial clean power loss).
// Blocks are resolved in ascending order so resolvers driven by a seeded
// plan are deterministic.
func (d *Device) CrashAndReset(resolve func(blk uint64, durable, cached []byte) []byte) {
	blks := make([]uint64, 0, len(d.cache))
	for blk := range d.cache {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	bs := uint64(d.cfg.BlockSize)
	for _, blk := range blks {
		if resolve != nil {
			durable := make([]byte, bs)
			if c := d.chunk(blk, false); c != nil {
				off := (blk % chunkBlocks) * bs
				copy(durable, c[off:off+bs])
			}
			if img := resolve(blk, durable, d.cache[blk]); img != nil {
				d.writeDurable(blk, img)
			}
		}
		d.uncache(blk, d.cache[blk])
	}
	d.PowerCycles++
}

// PeekBlock reads a block's current contents without consuming device time —
// a debugging/verification backdoor (used by fsck-style tests), not a data
// path.
func (d *Device) PeekBlock(blk uint64, buf []byte) {
	d.readRaw(blk, 1, buf)
}

// validate checks command bounds.
func (d *Device) validate(e *SubmissionEntry) Status {
	switch e.Opcode {
	case OpFlush:
		return StatusSuccess
	case OpRead, OpWrite:
		if e.NLB == 0 {
			return StatusInvalidField
		}
		if e.SLBA+uint64(e.NLB) > d.cfg.NumBlocks {
			return StatusLBARange
		}
		if len(e.SGL) > 0 {
			total := 0
			for _, seg := range e.SGL {
				if len(seg)%d.cfg.BlockSize != 0 {
					return StatusInvalidField
				}
				total += len(seg)
			}
			if total < int(e.NLB)*d.cfg.BlockSize {
				return StatusInvalidField
			}
		} else if len(e.Data) < int(e.NLB)*d.cfg.BlockSize {
			return StatusInvalidField
		}
		return StatusSuccess
	default:
		return StatusInvalidField
	}
}

// completionTime books device resources for the command and returns when it
// completes.
func (d *Device) completionTime(e *SubmissionEntry) time.Duration {
	now := d.eng.Now()
	bytes := int(e.NLB) * d.cfg.BlockSize

	// Shared bus serialization.
	var busDone time.Duration
	switch e.Opcode {
	case OpRead:
		bt := d.cfg.Model.busTime(OpRead, bytes)
		start := max(d.busReadFree, now)
		d.busReadFree = start + bt
		busDone = d.busReadFree
	case OpWrite:
		bt := d.cfg.Model.busTime(OpWrite, bytes)
		start := max(d.busWriteFree, now)
		d.busWriteFree = start + bt
		busDone = d.busWriteFree
	}

	// Channel occupancy: earliest-free channel.
	best := 0
	for i, f := range d.channelFree {
		if f < d.channelFree[best] {
			best = i
		}
	}
	start := max(d.channelFree[best], now)
	svc := d.cfg.Model.ServiceTime(e.Opcode, bytes)
	svc += d.jitter(svc)
	done := start + svc
	d.channelFree[best] = done

	return max(done, busDone)
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// command is one command inside the device, from the doorbell that handed
// it over to the posting of its CQE: the entry, the queue pair it came from,
// the status it will complete with and, for a torn write, the prefix that
// still reaches the write cache. Records are recycled through the device's
// free list — the device's events run on one lane, so the list needs no lock
// — and fire is bound once per record: scheduling a completion allocates
// nothing.
type command struct {
	dev  *Device
	qp   *QueuePair
	e    SubmissionEntry
	st   Status
	torn []byte // torn-write injection: leading blocks that land before the failure
	fire func() // c.complete
	// live is set from process to complete. A record that completes while it
	// sits in the free list was kept, or scheduled twice, by someone: its
	// entry already belongs to another command.
	live bool
}

// newCommand takes a record from the free list for entry e of qp.
func (d *Device) newCommand(qp *QueuePair, e *SubmissionEntry) *command {
	var c *command
	if n := len(d.freeCmds); n > 0 {
		c, d.freeCmds = d.freeCmds[n-1], d.freeCmds[:n-1]
	} else {
		c = &command{dev: d}
		c.fire = c.complete
	}
	c.qp, c.e, c.st, c.live = qp, *e, StatusSuccess, true
	return c
}

// process executes a submitted command: schedules data movement and CQE
// posting at the modeled completion time.
func (d *Device) process(qp *QueuePair, entry *SubmissionEntry) {
	c := d.newCommand(qp, entry)
	e := &c.e
	qp.emit(trace.DeviceStart, uint32(e.CID), e.SLBA, uint64(e.NLB))
	if c.st = d.validate(e); c.st != StatusSuccess {
		// Errors complete quickly, without touching media.
		d.eng.Schedule(200*time.Nanosecond, c.fire)
		return
	}
	var fault CommandFault
	if d.inj != nil {
		fault = d.inj.InjectCommand(e)
		if fault.ExtraLatency > 0 {
			d.InjectedLatency++
		}
	}
	if c.st = fault.Status; c.st != StatusSuccess {
		d.InjectedErrors++
		if e.Opcode == OpWrite && fault.TornBlocks > 0 {
			// The transfer tore mid-flight: a prefix of the data
			// reaches the volatile cache before the command fails.
			d.InjectedTorn++
			src := e.Data
			if len(e.SGL) > 0 {
				src = flattenSGL(e.SGL)
			}
			c.torn = src[:int(min(fault.TornBlocks, e.NLB))*d.cfg.BlockSize]
		}
		d.eng.Schedule(200*time.Nanosecond+fault.ExtraLatency, c.fire)
		return
	}
	done := d.completionTime(e) + fault.ExtraLatency
	switch e.Opcode {
	case OpRead:
		d.ReadOps++
		d.BytesRead += uint64(e.NLB) * uint64(d.cfg.BlockSize)
	case OpWrite:
		d.WriteOps++
		d.BytesWrite += uint64(e.NLB) * uint64(d.cfg.BlockSize)
	case OpFlush:
		d.FlushOps++
	}
	d.eng.ScheduleAt(done, c.fire)
}

// complete is the command's completion event. Data movement happens now: a
// read observes the medium as of completion; a write lands in the volatile
// cache now (a flush makes it durable). The record goes back to the free
// list before the CQE is posted, because posting can run the submitter, and
// its next command should find this record free.
func (c *command) complete() {
	if !c.live {
		panic("nvme: command record completed after it was recycled")
	}
	d, qp, e := c.dev, c.qp, &c.e
	switch {
	case c.st != StatusSuccess:
		if len(c.torn) > 0 {
			d.writeRaw(e.SLBA, uint32(len(c.torn)/d.cfg.BlockSize), c.torn)
		}
	case e.Opcode == OpFlush:
		d.destage()
	case len(e.SGL) > 0:
		d.moveSGL(e.Opcode, e.SLBA, e.NLB, e.SGL)
	case e.Opcode == OpRead:
		d.readRaw(e.SLBA, e.NLB, e.Data)
	default:
		d.writeRaw(e.SLBA, e.NLB, e.Data)
	}
	qp.emit(trace.DeviceDone, uint32(e.CID), e.SLBA, uint64(c.st))
	cid, st := e.CID, c.st
	c.qp, c.e, c.torn, c.live = nil, SubmissionEntry{}, nil, false
	d.freeCmds = append(d.freeCmds, c)
	qp.postCompletion(cid, st)
}

// moveSGL transfers nlb blocks between the medium and a scatter-gather
// list, segment by segment (validate already checked block alignment and
// total length).
func (d *Device) moveSGL(op Opcode, slba uint64, nlb uint32, sgl [][]byte) {
	lba := slba
	left := nlb
	for _, seg := range sgl {
		if left == 0 {
			break
		}
		n := uint32(len(seg) / d.cfg.BlockSize)
		if n > left {
			n = left
			seg = seg[:int(n)*d.cfg.BlockSize]
		}
		if op == OpRead {
			d.readRaw(lba, n, seg)
		} else {
			d.writeRaw(lba, n, seg)
		}
		lba += uint64(n)
		left -= n
	}
}

// flattenSGL gathers a scatter-gather list into one contiguous buffer
// (fault-injection paths only; the data path never materializes it).
func flattenSGL(sgl [][]byte) []byte {
	total := 0
	for _, seg := range sgl {
		total += len(seg)
	}
	out := make([]byte, 0, total)
	for _, seg := range sgl {
		out = append(out, seg...)
	}
	return out
}

// CreateQueuePair allocates a queue pair of the given depth. The interrupt
// vector and notification callback are configured on the returned pair.
func (d *Device) CreateQueuePair(depth int) (*QueuePair, error) {
	if len(d.qps) >= d.cfg.MaxQueuePairs {
		return nil, fmt.Errorf("nvme: queue pair limit (%d) reached", d.cfg.MaxQueuePairs)
	}
	if depth <= 0 {
		depth = 128
	}
	d.nextQP++
	qp := newQueuePair(d, d.nextQP, depth)
	d.qps[qp.ID] = qp
	return qp, nil
}

// DeleteQueuePair releases a queue pair.
func (d *Device) DeleteQueuePair(qp *QueuePair) {
	delete(d.qps, qp.ID)
}

// QueuePairCount returns the number of live queue pairs.
func (d *Device) QueuePairCount() int { return len(d.qps) }

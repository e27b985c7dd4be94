// Package nvme implements a functional model of an NVMe SSD: submission and
// completion queue pairs with doorbells and phase bits, a small command set,
// a sparse in-memory block store, and a calibrated service-time model of the
// Intel Optane P5800X used by the paper. Completions are delivered in
// virtual time through the internal/sim engine, either by raising an
// interrupt vector on a core (MSI-X → kernel, or remapped to a user
// interrupt) or by being discovered by pollers.
package nvme

import (
	"fmt"

	"aeolia/internal/sim"
)

// Opcode identifies an NVMe I/O command.
type Opcode uint8

// NVMe I/O command set opcodes (subset).
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
)

func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "flush"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%#x)", uint8(o))
	}
}

// Status is an NVMe completion status code (0 = success).
type Status uint16

// Completion status codes (subset; generic command status plus media errors,
// encoded as SCT<<8|SC like the spec's status field layout).
const (
	StatusSuccess           Status = 0x0
	StatusInvalidField      Status = 0x2
	StatusDataTransferError Status = 0x4
	StatusInternalError     Status = 0x6
	StatusLBARange          Status = 0x80
	StatusNamespaceNotReady Status = 0x82
	StatusWriteFault        Status = 0x280
	StatusUnrecoveredRead   Status = 0x281
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusInvalidField:
		return "invalid field"
	case StatusDataTransferError:
		return "data transfer error"
	case StatusInternalError:
		return "internal error"
	case StatusLBARange:
		return "LBA out of range"
	case StatusNamespaceNotReady:
		return "namespace not ready"
	case StatusWriteFault:
		return "media write fault"
	case StatusUnrecoveredRead:
		return "unrecovered read error"
	default:
		return fmt.Sprintf("status(%#x)", uint16(s))
	}
}

// Transient reports whether a command failing with this status may succeed if
// retried (the device hiccuped rather than rejected the command). Drivers use
// this to decide between retry/backoff and surfacing the error.
func (s Status) Transient() bool {
	switch s {
	case StatusDataTransferError, StatusInternalError, StatusNamespaceNotReady:
		return true
	default:
		return false
	}
}

// Err converts a status into an error (nil for success).
func (s Status) Err() error {
	if s == StatusSuccess {
		return nil
	}
	return fmt.Errorf("nvme: %v", s)
}

// SubmissionEntry is one SQ slot. Data stands in for the PRP/SGL pointers of
// a real command: for writes it is the source buffer, for reads the
// destination; it must hold NLB*BlockSize bytes.
type SubmissionEntry struct {
	Opcode Opcode
	CID    uint16
	SLBA   uint64
	NLB    uint32 // number of logical blocks (not 0-based, unlike real NVMe)
	Data   []byte
	// SGL is an optional scatter-gather list that replaces Data: the
	// transfer source (writes) or destination (reads) is the concatenation
	// of the segments, each a whole number of blocks. Gather-DMA lets a
	// host submit page-cache pages in place — no staging copy into one
	// contiguous buffer. When SGL is non-empty, Data is ignored.
	SGL [][]byte
	// Prio is the command's completion priority tag for per-class
	// interrupt coalescing: 0 is untagged, 1 the most urgent class, larger
	// values less urgent (drivers encode their delivery class as class+1).
	// See Coalescing.UrgentMax.
	Prio uint8
	// Done, if set, is the submitter's handle for this command: the queue
	// pair fires it the instant the command's CQE becomes visible, which is
	// when a poller could discover it. It is the submitter's memory (a
	// driver keeps it inside its request), so the queue pair allocates
	// nothing per command. It stands for the host's bookkeeping by CID and
	// is not part of what the device sees.
	Done *sim.Completion
}

// CompletionEntry is one CQ slot.
type CompletionEntry struct {
	CID    uint16
	Status Status
	SQHead uint16
	Phase  bool
}

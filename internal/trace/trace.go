// Package trace provides a compact on-disk format for memory-access
// traces: capture a workload's access stream from a live simulation, store
// it compressed, and replay it later against any memory configuration —
// the standard methodology for comparing memory-system designs on
// identical inputs.
//
// Format (gzip-compressed): the magic header, then a sequence of records.
// Each record is a kind byte followed by fields in little-endian varint
// encoding; addresses are delta-encoded against the previous op to keep
// sequential scans near one byte per op.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"thymesim/internal/memport"
	"thymesim/internal/sim"
)

// Magic identifies the format (and its version).
const Magic = "TSIMTRC1"

// Record kinds.
const (
	kindRead    = 0
	kindWrite   = 1
	kindBarrier = 2
	kindEnd     = 3
)

// Errors.
var (
	ErrBadMagic  = errors.New("trace: bad magic")
	ErrCorrupt   = errors.New("trace: corrupt record")
	ErrTruncated = errors.New("trace: truncated stream (missing end marker)")
)

// Writer streams records to an underlying writer.
type Writer struct {
	gz     *gzip.Writer
	w      *bufio.Writer
	buf    []byte
	prev   uint64
	ops    uint64
	phases uint64
	closed bool
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriter(gz)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	return &Writer{gz: gz, w: bw, buf: make([]byte, binary.MaxVarintLen64)}, nil
}

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf, v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Op appends one memory operation.
func (w *Writer) Op(op memport.Op) error {
	if w.closed {
		return errors.New("trace: write after Close")
	}
	kind := byte(kindRead)
	if op.Write {
		kind = kindWrite
	}
	if err := w.w.WriteByte(kind); err != nil {
		return err
	}
	// Zig-zag delta against the previous address.
	delta := int64(op.Addr - w.prev)
	w.prev = op.Addr
	if err := w.uvarint(uint64((delta<<1)^(delta>>63)) ^ 0); err != nil {
		return err
	}
	if err := w.uvarint(uint64(op.Size)); err != nil {
		return err
	}
	w.ops++
	return nil
}

// Barrier marks a phase boundary (dependency point) in the trace.
func (w *Writer) Barrier() error {
	if w.closed {
		return errors.New("trace: write after Close")
	}
	w.phases++
	return w.w.WriteByte(kindBarrier)
}

// Ops returns operations written so far.
func (w *Writer) Ops() uint64 { return w.ops }

// Close writes the end marker and flushes. The underlying writer is not
// closed.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.WriteByte(kindEnd); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.gz.Close()
}

// Reader decodes a trace.
type Reader struct {
	gz   *gzip.Reader
	r    *bufio.Reader
	prev uint64
	done bool
}

// Event is one decoded record.
type Event struct {
	// Barrier is true for phase boundaries; otherwise Op holds the
	// operation.
	Barrier bool
	Op      memport.Op
}

// NewReader opens a trace and validates the magic.
func NewReader(r io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(gz)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic) != Magic {
		return nil, ErrBadMagic
	}
	return &Reader{gz: gz, r: br}, nil
}

// Next returns the next event, or io.EOF after the end marker.
func (r *Reader) Next() (Event, error) {
	if r.done {
		return Event{}, io.EOF
	}
	kind, err := r.r.ReadByte()
	if err != nil {
		return Event{}, ErrTruncated
	}
	switch kind {
	case kindEnd:
		r.done = true
		return Event{}, io.EOF
	case kindBarrier:
		return Event{Barrier: true}, nil
	case kindRead, kindWrite:
		zz, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, ErrTruncated
		}
		delta := int64(zz>>1) ^ -int64(zz&1)
		addr := r.prev + uint64(delta)
		r.prev = addr
		size, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, ErrTruncated
		}
		if size == 0 || size > math.MaxInt32 {
			return Event{}, fmt.Errorf("%w: access size %d", ErrCorrupt, size)
		}
		return Event{Op: memport.Op{Addr: addr, Size: int32(size), Write: kind == kindWrite}}, nil
	default:
		return Event{}, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
	}
}

// Load reads an entire trace into memport phases (a barrier ends a phase;
// the final phase needs no trailing barrier).
func Load(r io.Reader) ([][]memport.Op, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var phases [][]memport.Op
	var cur []memport.Op
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Barrier {
			phases = append(phases, cur)
			cur = nil
			continue
		}
		cur = append(cur, ev.Op)
	}
	if len(cur) > 0 {
		phases = append(phases, cur)
	}
	return phases, nil
}

// Source adapts loaded phases to memport.TraceSource with zero compute.
type Source struct {
	Phases [][]memport.Op
}

// NumPhases implements memport.TraceSource.
func (s *Source) NumPhases() int { return len(s.Phases) }

// Phase implements memport.TraceSource.
func (s *Source) Phase(i int) []memport.Op { return s.Phases[i] }

// ComputeTime implements memport.TraceSource.
func (s *Source) ComputeTime(int) sim.Duration { return 0 }

package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// rawTrace gzips the magic header followed by body, so tests can hand-craft
// records the Writer would never emit.
func rawTrace(body []byte) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(Magic))
	gz.Write(body)
	gz.Close()
	return buf.Bytes()
}

// record encodes one read record: kind, zig-zag address delta, size.
func record(delta, size uint64) []byte {
	b := []byte{kindRead}
	b = binary.AppendUvarint(b, delta)
	return binary.AppendUvarint(b, size)
}

// TestRejectsBadAccessSize pins the size check: a record whose size is 0
// or does not fit an int32 is corrupt, not an op that panics downstream.
func TestRejectsBadAccessSize(t *testing.T) {
	for _, size := range []uint64{0, 1 << 31, 1 << 40} {
		body := append(record(0, 8), record(128, size)...)
		body = append(body, kindEnd)
		if _, err := Load(bytes.NewReader(rawTrace(body))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("size %d: err = %v, want ErrCorrupt", size, err)
		}
	}
	ok := append(record(0, 1<<31-1), kindEnd)
	if _, err := Load(bytes.NewReader(rawTrace(ok))); err != nil {
		t.Fatalf("largest int32 size rejected: %v", err)
	}
}

// FuzzTraceReader feeds arbitrary record streams (behind a valid header)
// and arbitrary raw files to the reader. It must never panic, every op it
// yields must have a positive size, and Load must agree with a Next loop.
func FuzzTraceReader(f *testing.F) {
	f.Add(append(record(0, 8), kindEnd), false)
	f.Add(append(append(record(4, 64), kindBarrier), append(record(3, 8), kindEnd)...), false)
	f.Add(append(record(0, 0), kindEnd), false)
	f.Add([]byte{kindWrite, 0x80}, false)
	f.Add([]byte{9}, false)
	f.Add([]byte("not gzip"), true)
	f.Add(rawTrace([]byte{kindEnd}), true)

	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		file := data
		if !raw {
			file = rawTrace(data)
		}
		ops, nextErr := 0, error(nil)
		if r, err := NewReader(bytes.NewReader(file)); err != nil {
			nextErr = err
		} else {
			for {
				ev, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					nextErr = err
					break
				}
				if !ev.Barrier && ev.Op.Size <= 0 {
					t.Fatalf("op with size %d", ev.Op.Size)
				}
				if !ev.Barrier {
					ops++
				}
			}
		}
		phases, err := Load(bytes.NewReader(file))
		if (err == nil) != (nextErr == nil) {
			t.Fatalf("Load err = %v, Next loop err = %v", err, nextErr)
		}
		loaded := 0
		for _, ph := range phases {
			loaded += len(ph)
		}
		if err == nil && loaded != ops {
			t.Fatalf("Load returned %d ops, Next loop %d", loaded, ops)
		}
	})
}

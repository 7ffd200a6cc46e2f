package ocapi

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPacketValidate(t *testing.T) {
	good := Packet{Op: OpReadBlock, Addr: 0x1000, Size: CacheLineSize}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid packet rejected: %v", err)
	}
	cases := []Packet{
		{Op: OpReadBlock, Addr: 0x1001, Size: CacheLineSize}, // misaligned
		{Op: OpReadBlock, Addr: 0x1000, Size: 64},            // wrong size
		{Op: OpWriteAck, Size: 8},                            // ack with payload
		{Op: OpProbe, Size: 1},                               // probe with payload
		{Op: OpInvalid},
		{Op: Op(200)},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid packet accepted: %+v", i, p)
		}
	}
}

func TestPacketWireBytes(t *testing.T) {
	read := Packet{Op: OpReadBlock, Addr: 0, Size: CacheLineSize}
	if got := read.WireBytes(); got != HeaderBytes+CmdBytes {
		t.Errorf("read wire = %d", got)
	}
	write := Packet{Op: OpWriteBlock, Addr: 0, Size: CacheLineSize}
	if got := write.WireBytes(); got != HeaderBytes+CmdBytes+CacheLineSize {
		t.Errorf("write wire = %d", got)
	}
	resp := Packet{Op: OpReadResp, Size: CacheLineSize}
	if got := resp.WireBytes(); got != HeaderBytes+CmdBytes+CacheLineSize {
		t.Errorf("resp wire = %d", got)
	}
	ack := Packet{Op: OpWriteAck}
	if got := ack.WireBytes(); got != HeaderBytes+CmdBytes {
		t.Errorf("ack wire = %d", got)
	}
}

func TestPacketResponse(t *testing.T) {
	req := Packet{Op: OpReadBlock, Tag: 7, Addr: 0x2000, Size: CacheLineSize, Src: 1, Dst: 2, Issued: 99}
	resp := req.Response()
	if resp.Op != OpReadResp || resp.Tag != 7 || resp.Src != 2 || resp.Dst != 1 || resp.Issued != 99 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Size != CacheLineSize {
		t.Fatalf("read response size = %d", resp.Size)
	}
	w := Packet{Op: OpWriteBlock, Tag: 3, Addr: 0x80, Size: CacheLineSize, Src: 1, Dst: 2}
	if r := w.Response(); r.Op != OpWriteAck || r.Size != 0 {
		t.Fatalf("write response = %+v", r)
	}
	p := Packet{Op: OpProbe, Src: 1, Dst: 2}
	if r := p.Response(); r.Op != OpProbeResp {
		t.Fatalf("probe response = %+v", r)
	}
}

func TestPacketResponseOfResponsePanics(t *testing.T) {
	resp := Packet{Op: OpReadResp, Size: CacheLineSize}
	defer func() {
		if recover() == nil {
			t.Error("Response of a response did not panic")
		}
	}()
	resp.Response()
}

func TestOpPredicatesAndNames(t *testing.T) {
	if !OpReadBlock.IsRequest() || OpReadBlock.IsResponse() {
		t.Error("OpReadBlock predicates wrong")
	}
	if !OpReadResp.IsResponse() || OpReadResp.IsRequest() {
		t.Error("OpReadResp predicates wrong")
	}
	if OpReadBlock.String() != "read_block" {
		t.Errorf("name = %q", OpReadBlock.String())
	}
	if Op(99).String() == "" {
		t.Error("unknown op has empty string")
	}
}

func TestTagAllocator(t *testing.T) {
	a := NewTagAllocator(3)
	seen := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		tag, ok := a.Alloc()
		if !ok || seen[tag] {
			t.Fatalf("alloc %d failed or dup: %v %v", i, tag, ok)
		}
		seen[tag] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if a.Outstanding() != 3 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
	a.Release(1)
	if tag, ok := a.Alloc(); !ok || tag != 1 {
		t.Fatalf("realloc = %v %v", tag, ok)
	}
}

func TestTagAllocatorDoubleReleasePanics(t *testing.T) {
	a := NewTagAllocator(2)
	tag, _ := a.Alloc()
	a.Release(tag)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	a.Release(tag)
}

// TestTagAllocatorReleaseUnallocatedPanics pins the dense table's bounds:
// releasing a tag that was never allocated, or one outside the tag space,
// is protocol corruption and must panic, not index out of range silently.
func TestTagAllocatorReleaseUnallocatedPanics(t *testing.T) {
	for _, tag := range []uint32{0, 1, 2, 3, 1 << 31, ^uint32(0)} {
		a := NewTagAllocator(3)
		held, _ := a.Alloc() // tag 0; the rest of the space stays free
		func() {
			defer func() {
				r := recover()
				if tag == held {
					if r != nil {
						t.Errorf("release of held tag %d panicked: %v", tag, r)
					}
					return
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, "non-outstanding tag") {
					t.Errorf("release of tag %d: recovered %v, want non-outstanding panic", tag, r)
				}
			}()
			a.Release(tag)
		}()
	}
}

func TestLineHelpers(t *testing.T) {
	if LineAlign(0x1234) != 0x1200 {
		t.Errorf("LineAlign = %#x", LineAlign(0x1234))
	}
	if n := LinesCovering(0, 128); n != 1 {
		t.Errorf("LinesCovering(0,128) = %d", n)
	}
	if n := LinesCovering(0, 129); n != 2 {
		t.Errorf("LinesCovering(0,129) = %d", n)
	}
	if n := LinesCovering(127, 2); n != 2 {
		t.Errorf("LinesCovering(127,2) = %d", n)
	}
	if n := LinesCovering(0, 0); n != 0 {
		t.Errorf("LinesCovering(0,0) = %d", n)
	}
}

// Property: LinesCovering is consistent with enumerating lines.
func TestLinesCoveringProperty(t *testing.T) {
	f := func(addr32 uint32, size16 uint16) bool {
		addr, size := uint64(addr32), int(size16)
		got := LinesCovering(addr, size)
		if size == 0 {
			return got == 0
		}
		count := 0
		for a := LineAlign(addr); a < addr+uint64(size); a += CacheLineSize {
			count++
		}
		return got == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketNack(t *testing.T) {
	req := Packet{Op: OpWriteBlock, Tag: 12, Addr: 0x3000, Size: CacheLineSize, Src: 1, Dst: 2, Issued: 77, Seq: 3}
	n := req.Nack()
	if n.Op != OpNack || n.Tag != 12 || n.Src != 2 || n.Dst != 1 || n.Seq != 3 || n.Issued != 77 {
		t.Fatalf("nack = %+v", n)
	}
	if !n.Poison || n.Size != 0 {
		t.Fatalf("nack not poisoned/payload-free: %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("nack invalid: %v", err)
	}
	if !OpNack.IsResponse() || OpNack.IsRequest() {
		t.Error("OpNack predicates wrong")
	}
}

func TestPacketNackOfResponsePanics(t *testing.T) {
	resp := Packet{Op: OpReadResp, Size: CacheLineSize}
	defer func() {
		if recover() == nil {
			t.Error("Nack of a response did not panic")
		}
	}()
	resp.Nack()
}

func TestPacketValidateFaultFlags(t *testing.T) {
	// Poison is a response-only property; an unpoisoned nack is malformed.
	bad := []Packet{
		{Op: OpReadBlock, Addr: 0, Size: CacheLineSize, Poison: true},
		{Op: OpNack},
		{Op: OpNack, Size: 4, Poison: true},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid packet accepted: %+v", i, p)
		}
	}
	ok := []Packet{
		{Op: OpNack, Poison: true},
		{Op: OpReadResp, Size: CacheLineSize, Poison: true},
		{Op: OpWriteBlock, Addr: 0, Size: CacheLineSize, Corrupt: true},
	}
	for i, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("case %d: valid packet rejected: %v", i, err)
		}
	}
}

func TestResponseEchoesSeq(t *testing.T) {
	req := Packet{Op: OpReadBlock, Tag: 4, Addr: 0x100, Size: CacheLineSize, Seq: 2}
	if r := req.Response(); r.Seq != 2 {
		t.Fatalf("response seq = %d, want 2", r.Seq)
	}
}

// TestRespondInPlaceMatchesResponse pins the pooled in-place reply to the
// value-returning Response for every request op, including the fault
// flags the in-place path must clear.
func TestRespondInPlaceMatchesResponse(t *testing.T) {
	for _, req := range []Packet{
		{Op: OpReadBlock, Tag: 7, Addr: 0x2000, Size: CacheLineSize, Src: 1, Dst: 2, Issued: 99, Seq: 3, Prio: 2, Trace: 11},
		{Op: OpWriteBlock, Tag: 3, Addr: 0x80, Size: CacheLineSize, Src: 1, Dst: 2, Seq: 1},
		{Op: OpProbe, Tag: 9, Src: 1, Dst: 2},
		{Op: OpReadBlock, Tag: 8, Addr: 0x100, Size: CacheLineSize, Src: 4, Dst: 5, Corrupt: true},
	} {
		want := req.Response()
		got := req
		got.RespondInPlace()
		if got != want {
			t.Errorf("%v: RespondInPlace = %+v, Response = %+v", req.Op, got, want)
		}
	}
}

// TestNackInPlaceSemantics checks the poisoned in-place nack: op, size,
// direction swap, and fault-flag handling.
func TestNackInPlaceSemantics(t *testing.T) {
	p := Packet{Op: OpReadBlock, Tag: 5, Addr: 0x400, Size: CacheLineSize, Src: 1, Dst: 2, Seq: 7, Corrupt: true}
	p.NackInPlace()
	if p.Op != OpNack || p.Size != 0 || p.Src != 2 || p.Dst != 1 || !p.Poison || p.Corrupt {
		t.Fatalf("NackInPlace = %+v", p)
	}
	if p.Tag != 5 || p.Seq != 7 {
		t.Fatalf("NackInPlace lost identity: %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("NackInPlace of a response did not panic")
		}
	}()
	p.NackInPlace()
}

// TestPacketPoolRecycleZeroes checks pool hygiene: recycled packets come
// back zeroed (no stale tag, fault flag, or payload metadata can leak into
// the next transaction) and nil Puts are ignored.
func TestPacketPoolRecycleZeroes(t *testing.T) {
	var pool PacketPool
	p := pool.Get()
	*p = Packet{Op: OpReadResp, Tag: 42, Addr: 0x1000, Size: CacheLineSize, Poison: true, Corrupt: true, Seq: 9}
	pool.Put(p)
	q := pool.Get()
	if q != p {
		t.Fatal("pool did not recycle the packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *q)
	}
	pool.Put(nil) // must be a no-op
	pool.Put(q)
	if r := pool.Get(); r != q {
		t.Fatal("pool lost the packet after nil Put")
	}
}

// TestPacketPoolLive checks the pool's live count: every Get counts one
// packet out, every non-nil Put one back, and a packet never put back
// stays counted.
func TestPacketPoolLive(t *testing.T) {
	var pool PacketPool
	a, b := pool.Get(), pool.Get()
	if pool.Live() != 2 {
		t.Fatalf("live = %d after two Gets, want 2", pool.Live())
	}
	pool.Put(a)
	pool.Put(nil)
	if pool.Live() != 1 {
		t.Fatalf("live = %d after one Put, want 1", pool.Live())
	}
	c := pool.Get() // reuses a
	pool.Put(c)
	if pool.Live() != 1 {
		t.Fatalf("live = %d with b lost, want 1", pool.Live())
	}
	pool.Put(b)
	if pool.Live() != 0 {
		t.Fatalf("live = %d after draining, want 0", pool.Live())
	}
}

// TestTagAllocatorExhaustRecycleEpochs exhausts the tag space repeatedly,
// releasing in a different order each epoch: every tag must be issued
// exactly once per epoch and allocation must fail exactly at exhaustion.
func TestTagAllocatorExhaustRecycleEpochs(t *testing.T) {
	const n = 16
	a := NewTagAllocator(n)
	held := make([]uint32, 0, n)
	for epoch := 0; epoch < 8; epoch++ {
		seen := map[uint32]bool{}
		held = held[:0]
		for i := 0; i < n; i++ {
			tag, ok := a.Alloc()
			if !ok {
				t.Fatalf("epoch %d: alloc %d failed", epoch, i)
			}
			if seen[tag] {
				t.Fatalf("epoch %d: tag %d double-issued", epoch, tag)
			}
			seen[tag] = true
			held = append(held, tag)
		}
		if _, ok := a.Alloc(); ok {
			t.Fatalf("epoch %d: alloc beyond capacity succeeded", epoch)
		}
		// Release in a rotating order so the free list sees every pattern.
		for i := range held {
			a.Release(held[(i+epoch)%n])
		}
		if a.Outstanding() != 0 {
			t.Fatalf("epoch %d: outstanding = %d", epoch, a.Outstanding())
		}
	}
}

// TestTagAllocatorChurnWithPacketPool drives an interleaved alloc/release
// churn through a PacketPool — the NIC's steady-state pattern — asserting
// a tag is never issued while a pooled packet still carries it
// outstanding.
func TestTagAllocatorChurnWithPacketPool(t *testing.T) {
	const n = 8
	a := NewTagAllocator(n)
	var pool PacketPool
	inflight := map[uint32]*Packet{}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	for step := 0; step < 4096; step++ {
		if len(inflight) < n && (len(inflight) == 0 || next(2) == 0) {
			tag, ok := a.Alloc()
			if !ok {
				t.Fatalf("step %d: alloc failed with %d in flight", step, len(inflight))
			}
			if _, dup := inflight[tag]; dup {
				t.Fatalf("step %d: tag %d issued while outstanding", step, tag)
			}
			p := pool.Get()
			if p.Tag != 0 || p.Op != OpInvalid {
				t.Fatalf("step %d: pooled packet dirty: %+v", step, *p)
			}
			p.Op, p.Tag, p.Addr, p.Size = OpReadBlock, tag, uint64(step)*CacheLineSize, CacheLineSize
			inflight[tag] = p
		} else {
			// Complete a pseudo-random outstanding transaction.
			k := next(len(inflight))
			for tag, p := range inflight {
				if k--; k < 0 {
					if p.Tag != tag {
						t.Fatalf("step %d: packet tag mutated: %d != %d", step, p.Tag, tag)
					}
					p.RespondInPlace()
					delete(inflight, tag)
					pool.Put(p)
					a.Release(tag)
					break
				}
			}
		}
	}
	if a.Outstanding() != len(inflight) {
		t.Fatalf("outstanding %d != inflight %d", a.Outstanding(), len(inflight))
	}
}

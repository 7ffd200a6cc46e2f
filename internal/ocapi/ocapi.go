// Package ocapi models the cache-coherent interconnect protocol that
// carries borrower cache misses to the disaggregated-memory NIC and across
// the network, in the style of OpenCAPI (the protocol ThymesisFlow uses on
// POWER9). Remote memory is accessed in cache-line-sized blocks; each
// command carries a tag for out-of-order completion, and commands are
// encapsulated with a network header for transmission (§II-A of the paper).
package ocapi

import (
	"fmt"

	"thymesim/internal/sim"
)

// CacheLineSize is the POWER9 cache-line size in bytes; all remote memory
// transfers are multiples of it.
const CacheLineSize = 128

// Wire-format overheads, in bytes. A command or response is encapsulated
// into a network packet with destination address, checksum, etc. (Fig. 1).
const (
	HeaderBytes = 30 // network encapsulation: addressing, checksum, flags
	CmdBytes    = 16 // OpenCAPI command: opcode, tag, address, size
)

// Op identifies a protocol operation.
type Op uint8

// Protocol operations.
const (
	OpInvalid    Op = iota
	OpReadBlock     // read one cache line from remote memory
	OpWriteBlock    // write one cache line to remote memory
	OpReadResp      // data response to OpReadBlock
	OpWriteAck      // completion response to OpWriteBlock
	OpProbe         // control-plane liveness/config probe (FPGA detection)
	OpProbeResp     // response to OpProbe
	OpNack          // lender rejection of a damaged request (CRC failure)
)

var opNames = map[Op]string{
	OpInvalid:    "invalid",
	OpReadBlock:  "read_block",
	OpWriteBlock: "write_block",
	OpReadResp:   "read_resp",
	OpWriteAck:   "write_ack",
	OpProbe:      "probe",
	OpProbeResp:  "probe_resp",
	OpNack:       "nack",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsRequest reports whether the operation originates at the borrower.
func (o Op) IsRequest() bool {
	return o == OpReadBlock || o == OpWriteBlock || o == OpProbe
}

// IsResponse reports whether the operation is a lender-side reply.
func (o Op) IsResponse() bool {
	return o == OpReadResp || o == OpWriteAck || o == OpProbeResp || o == OpNack
}

// Packet is one protocol message. Data payloads are modelled by size, not
// content: workload data lives in real Go memory at the workload layer and
// only timing flows through the datapath.
type Packet struct {
	Op     Op
	Tag    uint32   // transaction tag for out-of-order completion
	Addr   uint64   // borrower-side physical address
	Size   uint32   // payload bytes (CacheLineSize for block ops)
	Src    uint16   // source node id
	Dst    uint16   // destination node id
	Issued sim.Time // when the command entered the NIC (latency accounting)
	// Prio is the QoS class for egress scheduling: 0 is the highest
	// priority. It only affects requests (responses bypass the injector).
	Prio uint8
	// Seq is the ARQ attempt number for this transmission of the tag: 0 on
	// first send, incremented per retransmission. Responses echo it so the
	// sender can discard replies to superseded attempts.
	Seq uint16
	// Corrupt marks a packet damaged on the wire (CRC failure at the
	// receiver). The payload sizes stay intact in this timing model; the
	// flag is what the lender's CRC check observes.
	Corrupt bool
	// Poison marks a response whose data must not be consumed: the lender
	// nacked the request or the ARQ layer exhausted its retries and
	// completed the transaction as dead.
	Poison bool
	// Trace carries the observability span id of the transaction this
	// packet belongs to (0 = untraced). Simulation metadata only — it is
	// never encoded on the wire — but it rides through retransmissions and
	// into responses so the span tracer can stitch per-stage timings
	// across the full datapath.
	Trace uint64
}

// Validate checks protocol invariants.
func (p *Packet) Validate() error {
	switch p.Op {
	case OpReadBlock, OpWriteBlock:
		if p.Size != CacheLineSize {
			return fmt.Errorf("ocapi: %v size %d, want cache line %d", p.Op, p.Size, CacheLineSize)
		}
		if p.Addr%CacheLineSize != 0 {
			return fmt.Errorf("ocapi: %v address %#x not line-aligned", p.Op, p.Addr)
		}
	case OpReadResp:
		if p.Size != CacheLineSize {
			return fmt.Errorf("ocapi: read_resp size %d", p.Size)
		}
	case OpWriteAck, OpProbe, OpProbeResp:
		if p.Size != 0 {
			return fmt.Errorf("ocapi: %v carries unexpected payload %d", p.Op, p.Size)
		}
	case OpNack:
		if p.Size != 0 {
			return fmt.Errorf("ocapi: nack carries unexpected payload %d", p.Size)
		}
		if !p.Poison {
			return fmt.Errorf("ocapi: nack must be poisoned")
		}
	default:
		return fmt.Errorf("ocapi: invalid op %v", p.Op)
	}
	if p.Poison && !p.Op.IsResponse() {
		return fmt.Errorf("ocapi: poison on non-response %v", p.Op)
	}
	return nil
}

// WireBytes returns the packet's size on the network under the default
// (OpenCAPI-over-Ethernet) profile.
func (p *Packet) WireBytes() int { return DefaultProfile.WireBytes(p) }

// Profile describes an interconnect's per-packet overheads. The paper's
// §V discussion contrasts ThymesisFlow's OpenCAPI-over-Ethernet framing
// with CXL's native switched fabric; profiles make that overhead a
// first-class parameter.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Header is the network encapsulation per packet (addressing,
	// checksum, flags).
	Header int
	// Cmd is the protocol command/response framing per packet.
	Cmd int
}

// DefaultProfile is ThymesisFlow's OpenCAPI-over-Ethernet framing.
var DefaultProfile = Profile{Name: "opencapi-ethernet", Header: HeaderBytes, Cmd: CmdBytes}

// CXLProfile approximates CXL's native flit framing: no Ethernet
// encapsulation, 68B flits with ~6B of slotting/CRC overhead per message.
var CXLProfile = Profile{Name: "cxl-native", Header: 6, Cmd: 10}

// WireBytes returns a packet's size on the wire under this profile.
func (pr Profile) WireBytes(p *Packet) int {
	n := pr.Header + pr.Cmd
	switch p.Op {
	case OpWriteBlock, OpReadResp:
		n += int(p.Size)
	}
	return n
}

// Response constructs the reply packet for a request, swapping direction
// and preserving the tag, attempt sequence, and issue timestamp.
func (p *Packet) Response() Packet {
	r := Packet{Tag: p.Tag, Addr: p.Addr, Src: p.Dst, Dst: p.Src, Issued: p.Issued, Prio: p.Prio, Seq: p.Seq, Trace: p.Trace}
	switch p.Op {
	case OpReadBlock:
		r.Op = OpReadResp
		r.Size = CacheLineSize
	case OpWriteBlock:
		r.Op = OpWriteAck
	case OpProbe:
		r.Op = OpProbeResp
	default:
		panic(fmt.Sprintf("ocapi: Response of non-request %v", p.Op))
	}
	return r
}

// Nack constructs the lender's rejection of a damaged request: a poisoned,
// payload-free reply echoing the tag and attempt sequence so the sender's
// ARQ layer can retransmit the right attempt.
func (p *Packet) Nack() Packet {
	if !p.Op.IsRequest() {
		panic(fmt.Sprintf("ocapi: Nack of non-request %v", p.Op))
	}
	return Packet{
		Op: OpNack, Tag: p.Tag, Addr: p.Addr,
		Src: p.Dst, Dst: p.Src,
		Issued: p.Issued, Prio: p.Prio, Seq: p.Seq,
		Poison: true, Trace: p.Trace,
	}
}

// RespondInPlace mutates a request packet into its reply, swapping
// direction and preserving tag, attempt sequence, issue timestamp, and
// trace id. It is the allocation-free sibling of Response, used on the
// pooled wire path where the same *Packet object rides the Beat back to
// the requester. A corrupt request's flag is cleared: the reply is a
// fresh transmission.
func (p *Packet) RespondInPlace() {
	switch p.Op {
	case OpReadBlock:
		p.Op = OpReadResp
		p.Size = CacheLineSize
	case OpWriteBlock:
		p.Op = OpWriteAck
		p.Size = 0
	case OpProbe:
		p.Op = OpProbeResp
		p.Size = 0
	default:
		panic(fmt.Sprintf("ocapi: RespondInPlace of non-request %v", p.Op))
	}
	p.Src, p.Dst = p.Dst, p.Src
	p.Corrupt = false
	p.Poison = false
}

// NackInPlace mutates a damaged request into the lender's poisoned,
// payload-free rejection, the allocation-free sibling of Nack.
func (p *Packet) NackInPlace() {
	if !p.Op.IsRequest() {
		panic(fmt.Sprintf("ocapi: NackInPlace of non-request %v", p.Op))
	}
	p.Op = OpNack
	p.Size = 0
	p.Src, p.Dst = p.Dst, p.Src
	p.Corrupt = false
	p.Poison = true
}

// PacketPool is a free list of wire Packet objects for the pooled
// datapath: a NIC borrows one per transmission, the far side mutates it in
// place into the response, and the originator frees it on delivery. It is
// single-threaded like everything else attached to a kernel.
type PacketPool struct {
	free []*Packet
	live int // Get calls minus non-nil Put calls
}

// Get returns a zeroed *Packet, reusing a freed one when available.
func (pp *PacketPool) Get() *Packet {
	pp.live++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		return p
	}
	return new(Packet)
}

// Put returns a packet to the pool. Putting nil is a no-op. The caller
// must not retain p afterwards: the next Get may hand it out again.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pp.live--
	pp.free = append(pp.free, p)
}

// Live returns the packets handed out and not yet put back: those still
// in flight plus any lost on the way and left to the GC.
func (pp *PacketPool) Live() int { return pp.live }

// TagAllocator hands out transaction tags from a bounded space, mirroring
// the AFU tag pool that bounds outstanding OpenCAPI commands. Tags index a
// dense outstanding table, so allocation and release touch no map.
type TagAllocator struct {
	free []uint32
	out  []bool // out[t]: tag t is allocated
}

// NewTagAllocator returns an allocator with n tags (0..n-1).
func NewTagAllocator(n int) *TagAllocator {
	if n <= 0 {
		panic("ocapi: tag space must be positive")
	}
	a := &TagAllocator{free: make([]uint32, 0, n), out: make([]bool, n)}
	for i := n - 1; i >= 0; i-- {
		a.free = append(a.free, uint32(i))
	}
	return a
}

// Alloc takes a free tag; ok is false when the space is exhausted.
func (a *TagAllocator) Alloc() (uint32, bool) {
	if len(a.free) == 0 {
		return 0, false
	}
	t := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.out[t] = true
	return t, true
}

// Release returns a tag; releasing a tag not outstanding panics (protocol
// corruption).
func (a *TagAllocator) Release(tag uint32) {
	if uint64(tag) >= uint64(len(a.out)) || !a.out[tag] {
		panic(fmt.Sprintf("ocapi: release of non-outstanding tag %d", tag))
	}
	a.out[tag] = false
	a.free = append(a.free, tag)
}

// Outstanding returns the number of tags in flight.
func (a *TagAllocator) Outstanding() int { return len(a.out) - len(a.free) }

// LineAlign rounds addr down to a cache-line boundary.
func LineAlign(addr uint64) uint64 { return addr &^ uint64(CacheLineSize-1) }

// LinesCovering returns how many cache lines the byte range [addr,
// addr+size) touches.
func LinesCovering(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineAlign(addr)
	last := LineAlign(addr + uint64(size) - 1)
	return int((last-first)/CacheLineSize) + 1
}

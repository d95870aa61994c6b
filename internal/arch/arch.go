// Package arch implements the functional (architectural) model of the M32
// processor: register state, coprocessor 0, the software-managed TLB,
// exception and interrupt semantics, and single-instruction execution
// against a physical bus.
//
// The functional core is the single source of architectural truth. The
// timing models in internal/cpu/mipsy and internal/cpu/mxs follow the
// timing-first simulation methodology: they drive this core one committed
// instruction at a time and model pipelines, caches and speculation around
// the StepInfo records it produces. This mirrors the split in SimOS between
// its CPU models (Mipsy, MXS) and the underlying machine state.
package arch

import (
	"fmt"

	"softwatt/internal/isa"
)

// Bus is the physical address space seen by the CPU: RAM plus
// memory-mapped devices. Addresses are physical. Size is 1, 2, 4 or 8.
type Bus interface {
	ReadPhys(paddr uint32, size int) uint64
	WritePhys(paddr uint32, size int, v uint64)
}

// CycleSync is the machine's exact-time hook. A timing core that runs many
// cycles per call publishes the current cycle through it before any step
// that can reach MMIO, so device handlers that read or latch the machine
// cycle (timer arming, disk submission) see exactly the cycle a per-cycle
// loop would have shown them. Nil in harnesses without devices.
type CycleSync interface {
	SyncCycle(cycle uint64)
}

// NumTLB is the number of TLB entries (fully associative, unified), per the
// paper's Table 1.
const NumTLB = 64

// tlbWired is the number of low TLB entries never selected by TLBWR.
const tlbWired = 4

// TLBEntry is one entry of the software-managed unified TLB.
type TLBEntry struct {
	VPN   uint32 // virtual page number
	ASID  uint8
	PFN   uint32 // physical frame number
	V     bool   // valid
	D     bool   // dirty (writable)
	G     bool   // global (ignore ASID)
	InUse bool   // entry has been written at least once
}

// EntryLo flag bits.
const (
	EntryLoG = 1 << 0
	EntryLoV = 1 << 1
	EntryLoD = 1 << 2
)

// PackEntryLo builds an EntryLo register value.
func PackEntryLo(pfn uint32, v, d, g bool) uint32 {
	e := pfn << 12
	if g {
		e |= EntryLoG
	}
	if v {
		e |= EntryLoV
	}
	if d {
		e |= EntryLoD
	}
	return e
}

// MemKind classifies a memory access for the timing models.
type MemKind uint8

// Memory access kinds.
const (
	MemNone MemKind = iota
	MemLoad
	MemStore
)

// StepInfo reports everything a timing model needs to know about one
// architecturally executed instruction (or taken exception/interrupt).
type StepInfo struct {
	PC      uint32
	NextPC  uint32
	PhysPC  uint32 // physical address of the instruction (valid when Fetched)
	Fetched bool   // instruction bytes were read (false for interrupts and fetch faults)
	Inst    isa.Inst

	Mem         MemKind
	MemVaddr    uint32
	MemPaddr    uint32
	MemSize     uint8
	MemUncached bool

	TookException bool
	ExcCode       uint8
	Interrupt     bool
	// NestedExc is set when the exception was taken with EXL already set:
	// EPC is not updated, so the interrupted handler is abandoned and will
	// be re-entered from scratch after ERET (the MIPS double-fault dance
	// of a TLB miss inside the utlb refill handler).
	NestedExc bool

	TLBLookups int // hardware TLB lookups performed (fetch + data)

	Branch      bool // conditional branch executed
	BranchTaken bool
	CacheOp     bool
	CacheVaddr  uint32
	CachePaddr  uint32
	CacheMapped bool // cache-op address translated successfully
	SCFailed    bool
	KernelMode  bool // mode the instruction executed in
	Waiting     bool // WAIT executed with no pending interrupt
	Halted      bool
}

// CPU is the architectural state of one M32 processor.
type CPU struct {
	GPR [32]uint32
	FPR [32]float64
	FCC bool
	PC  uint32

	COP0 [32]uint32
	TLB  [NumTLB]TLBEntry

	llBit  bool
	llAddr uint32
	random uint8

	// IP is the external interrupt request lines (bit i = line i).
	IP uint8

	// Halted is set by the platform HALT device (via Halt).
	Halted bool

	bus Bus

	// scratch buffers reused across Step calls
	waiting bool

	// Host-time caches (see fastpath.go). Never architecturally visible.
	iuTLB   microTLB // last instruction-fetch translation
	duTLB   microTLB // last data translation
	pd      []pdLine // predecoded instruction lines
	pdLimit uint32   // predecode only below this physical address (0 = off)
	// Last-decode memo: the metadata of the word DecodeAt most recently
	// decoded, keyed by its physical address. Serves the MetaAt lookup that
	// dispatch stages perform right after the fetch. Cleared on every
	// predecode invalidation.
	lastDecPaddr uint32
	lastDecMeta  *isa.Meta
	// Predecode effectiveness telemetry (see FastStats).
	pdHits   uint64
	pdMisses uint64
}

// New creates a CPU in the post-reset state: kernel mode, exceptions off,
// PC at the reset vector.
func New(bus Bus) *CPU {
	c := &CPU{bus: bus, random: NumTLB - 1}
	c.Reset()
	return c
}

// Reset restores the power-on architectural state.
func (c *CPU) Reset() {
	c.GPR = [32]uint32{}
	c.FPR = [32]float64{}
	c.FCC = false
	c.PC = isa.VecReset
	c.COP0 = [32]uint32{}
	c.COP0[isa.C0Status] = 0 // kernel mode, interrupts disabled
	c.COP0[isa.C0PRId] = 0x0A10
	c.TLB = [NumTLB]TLBEntry{}
	c.llBit = false
	c.random = NumTLB - 1
	c.IP = 0
	c.Halted = false
	c.waiting = false
	c.microInvalidate()
	c.pdReset()
}

// Halt stops the processor (platform power-off).
func (c *CPU) Halt() { c.Halted = true }

// SetIRQ asserts (on=true) or deasserts external interrupt line.
func (c *CPU) SetIRQ(line uint8, on bool) {
	if on {
		c.IP |= 1 << line
	} else {
		c.IP &^= 1 << line
	}
}

// UserMode reports whether the CPU currently executes user code.
func (c *CPU) UserMode() bool {
	st := c.COP0[isa.C0Status]
	return st&isa.StatusUM != 0 && st&isa.StatusEXL == 0
}

// InHandler reports whether EXL is set (exception level).
func (c *CPU) InHandler() bool { return c.COP0[isa.C0Status]&isa.StatusEXL != 0 }

// ASID returns the current address-space id from EntryHi.
func (c *CPU) ASID() uint8 { return uint8(c.COP0[isa.C0EntryHi]) }

// translate result codes.
type xlat uint8

const (
	xlatOK xlat = iota
	xlatMiss
	xlatInvalid
	xlatMod
	xlatAddrErr
	xlatUncached
)

// translate maps a virtual address to physical. write selects the
// store-permission check; mc is the translation micro-cache consulted in
// front of the full TLB scan (the instruction-side or data-side entry).
// Returns the physical address, a result code, and whether the hardware
// performed a TLB lookup.
func (c *CPU) translate(mc *microTLB, va uint32, write bool) (uint32, xlat, bool) {
	switch {
	case va < isa.KUSEGTop: // useg: TLB-mapped, accessible from both modes
		return c.tlbLookup(mc, va, write)
	case va < isa.KSEG1Base: // kseg0
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		return va - isa.KSEG0Base, xlatOK, false
	case va < isa.KSEG2Base: // kseg1 (uncached)
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		return va - isa.KSEG1Base, xlatUncached, false
	default: // kseg2
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		pa, r, _ := c.tlbLookup(mc, va, write)
		return pa, r, true
	}
}

func (c *CPU) tlbLookup(mc *microTLB, va uint32, write bool) (uint32, xlat, bool) {
	vpn := va >> isa.PageShift
	asid := c.ASID()
	if mc.ok && mc.vpn == vpn && mc.asid == asid && (!write || mc.dirty) {
		mc.hits++
		return mc.pfn<<isa.PageShift | va&(isa.PageSize-1), xlatOK, true
	}
	mc.misses++
	for i := range c.TLB {
		e := &c.TLB[i]
		if !e.InUse || e.VPN != vpn || (!e.G && e.ASID != asid) {
			continue
		}
		if !e.V {
			return 0, xlatInvalid, true
		}
		if write && !e.D {
			return 0, xlatMod, true
		}
		// Successful translations (and only those) seed the micro-cache;
		// the cached D bit keeps the store-permission check exact. Field
		// assignments (not a struct literal) preserve the telemetry counts.
		mc.vpn, mc.pfn, mc.asid, mc.dirty, mc.ok = vpn, e.PFN, asid, e.D, true
		return e.PFN<<isa.PageShift | va&(isa.PageSize-1), xlatOK, true
	}
	return 0, xlatMiss, true
}

// ProbeTLB performs a lookup without permission checks; used by debug tools
// and the out-of-order core's wrong-path fetch. It shares the
// instruction-side micro-entry: a probe is a fetch-path translation.
func (c *CPU) ProbeTLB(va uint32) (uint32, bool) {
	pa, r, _ := c.tlbLookup(&c.iuTLB, va, false)
	if r == xlatOK {
		return pa, true
	}
	return 0, false
}

// raise vectors the CPU into an exception handler.
func (c *CPU) raise(info *StepInfo, code uint8, badva uint32, isRefillCandidate bool) {
	st := c.COP0[isa.C0Status]
	vector := uint32(isa.VecGeneral)
	if isRefillCandidate && st&isa.StatusEXL == 0 {
		vector = isa.VecUTLB
	}
	if st&isa.StatusEXL == 0 {
		c.COP0[isa.C0EPC] = info.PC
	} else {
		info.NestedExc = true
	}
	c.COP0[isa.C0Status] = st | isa.StatusEXL
	cause := c.COP0[isa.C0Cause] &^ isa.CauseExcMask
	cause |= uint32(code) << isa.CauseExcShift
	c.COP0[isa.C0Cause] = cause
	if code == isa.ExcTLBL || code == isa.ExcTLBS || code == isa.ExcTLBMod ||
		code == isa.ExcAdEL || code == isa.ExcAdES {
		c.COP0[isa.C0BadVAddr] = badva
		c.COP0[isa.C0EntryHi] = badva&^(isa.PageSize-1) | uint32(c.ASID())
		ctx := c.COP0[isa.C0Context]
		c.COP0[isa.C0Context] = ctx&0xFFE0_0000 | (badva>>10)&0x001F_FFFC
	}
	c.llBit = false
	c.PC = vector
	info.TookException = true
	info.ExcCode = code
	info.NextPC = vector
}

// pendingInterrupt reports whether an enabled interrupt is pending.
func (c *CPU) pendingInterrupt() bool {
	st := c.COP0[isa.C0Status]
	if st&isa.StatusIE == 0 || st&isa.StatusEXL != 0 {
		return false
	}
	mask := uint8(st >> 8)
	return c.IP&mask != 0
}

// Step architecturally executes one instruction (or takes a pending
// interrupt) and returns its StepInfo. cycle is the timing model's current
// cycle, exposed to software through the COUNT register.
func (c *CPU) Step(cycle uint64) StepInfo {
	var info StepInfo
	c.StepInto(cycle, &info)
	return info
}

// StepInto is Step writing its result through out, so hot callers that
// store the StepInfo anyway avoid two ~100-byte copies per instruction.
func (c *CPU) StepInto(cycle uint64, out *StepInfo) {
	info := out
	*info = StepInfo{PC: c.PC, KernelMode: !c.UserMode()}
	if c.Halted {
		info.Halted = true
		info.NextPC = c.PC
		return
	}
	c.COP0[isa.C0Count] = uint32(cycle)

	// Deliver pending interrupts before fetch.
	if c.pendingInterrupt() {
		c.waiting = false
		c.COP0[isa.C0Cause] = c.COP0[isa.C0Cause]&^0xFF00 | uint32(c.IP)<<isa.CauseIPShift
		c.raise(info, isa.ExcInt, 0, false)
		info.Interrupt = true
		return
	}
	if c.waiting {
		info.Waiting = true
		info.NextPC = c.PC
		return
	}

	// Fetch.
	if c.PC&3 != 0 {
		c.raise(info, isa.ExcAdEL, c.PC, false)
		return
	}
	ppc, xr, tlbed := c.translate(&c.iuTLB, c.PC, false)
	if tlbed {
		info.TLBLookups++
	}
	switch xr {
	case xlatOK, xlatUncached:
	case xlatMiss:
		c.raise(info, isa.ExcTLBL, c.PC, c.PC < isa.KUSEGTop)
		return
	case xlatInvalid:
		c.raise(info, isa.ExcTLBL, c.PC, false)
		return
	default:
		c.raise(info, isa.ExcAdEL, c.PC, false)
		return
	}
	info.PhysPC = ppc
	info.Fetched = true
	in := c.DecodeAt(ppc)
	info.Inst = in
	nextPC := c.PC + 4

	// TLBWR replacement pointer decays every instruction, MIPS-style.
	if c.random == tlbWired {
		c.random = NumTLB - 1
	} else {
		c.random--
	}

	g := &c.GPR
	switch in.Op {
	case isa.OpInvalid:
		c.raise(info, isa.ExcRI, 0, false)
		return

	case isa.OpSLL:
		g[in.Rd] = g[in.Rt] << in.Shamt
	case isa.OpSRL:
		g[in.Rd] = g[in.Rt] >> in.Shamt
	case isa.OpSRA:
		g[in.Rd] = uint32(int32(g[in.Rt]) >> in.Shamt)
	case isa.OpSLLV:
		g[in.Rd] = g[in.Rt] << (g[in.Rs] & 31)
	case isa.OpSRLV:
		g[in.Rd] = g[in.Rt] >> (g[in.Rs] & 31)
	case isa.OpSRAV:
		g[in.Rd] = uint32(int32(g[in.Rt]) >> (g[in.Rs] & 31))

	case isa.OpJR:
		nextPC = g[in.Rs]
	case isa.OpJALR:
		g[in.Rd] = c.PC + 4
		nextPC = g[in.Rs]
	case isa.OpJ:
		nextPC = c.PC&0xF000_0000 | in.Target
	case isa.OpJAL:
		g[isa.RegRA] = c.PC + 4
		nextPC = c.PC&0xF000_0000 | in.Target

	case isa.OpSYSCALL:
		c.raise(info, isa.ExcSyscall, 0, false)
		return
	case isa.OpBREAK:
		c.raise(info, isa.ExcBreak, 0, false)
		return

	case isa.OpMUL:
		g[in.Rd] = uint32(int32(g[in.Rs]) * int32(g[in.Rt]))
	case isa.OpDIV:
		if g[in.Rt] == 0 {
			g[in.Rd] = ^uint32(0)
		} else {
			g[in.Rd] = uint32(int32(g[in.Rs]) / int32(g[in.Rt]))
		}
	case isa.OpREM:
		if g[in.Rt] == 0 {
			g[in.Rd] = g[in.Rs]
		} else {
			g[in.Rd] = uint32(int32(g[in.Rs]) % int32(g[in.Rt]))
		}
	case isa.OpDIVU:
		if g[in.Rt] == 0 {
			g[in.Rd] = ^uint32(0)
		} else {
			g[in.Rd] = g[in.Rs] / g[in.Rt]
		}
	case isa.OpREMU:
		if g[in.Rt] == 0 {
			g[in.Rd] = g[in.Rs]
		} else {
			g[in.Rd] = g[in.Rs] % g[in.Rt]
		}

	case isa.OpADD, isa.OpADDU:
		g[in.Rd] = g[in.Rs] + g[in.Rt]
	case isa.OpSUB, isa.OpSUBU:
		g[in.Rd] = g[in.Rs] - g[in.Rt]
	case isa.OpAND:
		g[in.Rd] = g[in.Rs] & g[in.Rt]
	case isa.OpOR:
		g[in.Rd] = g[in.Rs] | g[in.Rt]
	case isa.OpXOR:
		g[in.Rd] = g[in.Rs] ^ g[in.Rt]
	case isa.OpNOR:
		g[in.Rd] = ^(g[in.Rs] | g[in.Rt])
	case isa.OpSLT:
		g[in.Rd] = b2u(int32(g[in.Rs]) < int32(g[in.Rt]))
	case isa.OpSLTU:
		g[in.Rd] = b2u(g[in.Rs] < g[in.Rt])

	case isa.OpBLTZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) < 0, in.Imm)
	case isa.OpBGEZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) >= 0, in.Imm)
	case isa.OpBEQ:
		c.branch(info, &nextPC, g[in.Rs] == g[in.Rt], in.Imm)
	case isa.OpBNE:
		c.branch(info, &nextPC, g[in.Rs] != g[in.Rt], in.Imm)
	case isa.OpBLEZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) <= 0, in.Imm)
	case isa.OpBGTZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) > 0, in.Imm)

	case isa.OpADDI, isa.OpADDIU:
		g[in.Rt] = g[in.Rs] + uint32(in.Imm)
	case isa.OpSLTI:
		g[in.Rt] = b2u(int32(g[in.Rs]) < in.Imm)
	case isa.OpSLTIU:
		g[in.Rt] = b2u(g[in.Rs] < uint32(in.Imm))
	case isa.OpANDI:
		g[in.Rt] = g[in.Rs] & uint32(uint16(in.Imm))
	case isa.OpORI:
		g[in.Rt] = g[in.Rs] | uint32(uint16(in.Imm))
	case isa.OpXORI:
		g[in.Rt] = g[in.Rs] ^ uint32(uint16(in.Imm))
	case isa.OpLUI:
		g[in.Rt] = uint32(uint16(in.Imm)) << 16

	case isa.OpMFC0:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		if in.Rd == isa.C0Random {
			g[in.Rt] = uint32(c.random)
		} else {
			g[in.Rt] = c.COP0[in.Rd]
		}
	case isa.OpMTC0:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		c.COP0[in.Rd] = g[in.Rt]
	case isa.OpTLBR:
		i := c.COP0[isa.C0Index] % NumTLB
		e := c.TLB[i]
		c.COP0[isa.C0EntryHi] = e.VPN<<isa.PageShift | uint32(e.ASID)
		c.COP0[isa.C0EntryLo] = PackEntryLo(e.PFN, e.V, e.D, e.G)
	case isa.OpTLBWI:
		c.tlbWrite(c.COP0[isa.C0Index] % NumTLB)
	case isa.OpTLBWR:
		c.tlbWrite(uint32(c.random))
	case isa.OpTLBP:
		hi := c.COP0[isa.C0EntryHi]
		vpn := hi >> isa.PageShift
		asid := uint8(hi)
		c.COP0[isa.C0Index] = 0x8000_0000
		for i := range c.TLB {
			e := &c.TLB[i]
			if e.InUse && e.VPN == vpn && (e.G || e.ASID == asid) {
				c.COP0[isa.C0Index] = uint32(i)
				break
			}
		}
	case isa.OpERET:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		c.COP0[isa.C0Status] &^= isa.StatusEXL
		nextPC = c.COP0[isa.C0EPC]
		c.llBit = false
	case isa.OpWAIT:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		c.waiting = true
		info.Waiting = true

	case isa.OpMFC1:
		g[in.Rt] = uint32(f64bits(c.FPR[in.Rs]))
	case isa.OpMTC1:
		c.FPR[in.Rs] = f64frombits(uint64(g[in.Rt]))
	case isa.OpBC1F:
		c.branch(info, &nextPC, !c.FCC, in.Imm)
	case isa.OpBC1T:
		c.branch(info, &nextPC, c.FCC, in.Imm)
	case isa.OpFADD:
		c.FPR[in.Rd] = c.FPR[in.Rs] + c.FPR[in.Rt]
	case isa.OpFSUB:
		c.FPR[in.Rd] = c.FPR[in.Rs] - c.FPR[in.Rt]
	case isa.OpFMUL:
		c.FPR[in.Rd] = c.FPR[in.Rs] * c.FPR[in.Rt]
	case isa.OpFDIV:
		c.FPR[in.Rd] = c.FPR[in.Rs] / c.FPR[in.Rt]
	case isa.OpFSQRT:
		c.FPR[in.Rd] = fsqrt(c.FPR[in.Rs])
	case isa.OpFABS:
		v := c.FPR[in.Rs]
		if v < 0 {
			v = -v
		}
		c.FPR[in.Rd] = v
	case isa.OpFMOV:
		c.FPR[in.Rd] = c.FPR[in.Rs]
	case isa.OpFNEG:
		c.FPR[in.Rd] = -c.FPR[in.Rs]
	case isa.OpCVTDW:
		c.FPR[in.Rd] = float64(int32(f64bits(c.FPR[in.Rs])))
	case isa.OpCVTWD:
		c.FPR[in.Rd] = f64frombits(uint64(uint32(int32(c.FPR[in.Rs]))))
	case isa.OpFCEQ:
		c.FCC = c.FPR[in.Rs] == c.FPR[in.Rt]
	case isa.OpFCLT:
		c.FCC = c.FPR[in.Rs] < c.FPR[in.Rt]
	case isa.OpFCLE:
		c.FCC = c.FPR[in.Rs] <= c.FPR[in.Rt]

	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU, isa.OpLL, isa.OpFLD:
		if !c.dataAccess(info, in, false) {
			return
		}
		v := c.bus.ReadPhys(info.MemPaddr, int(info.MemSize))
		switch in.Op {
		case isa.OpLB:
			g[in.Rt] = uint32(int8(v))
		case isa.OpLH:
			g[in.Rt] = uint32(int16(v))
		case isa.OpLW:
			g[in.Rt] = uint32(v)
		case isa.OpLBU:
			g[in.Rt] = uint32(uint8(v))
		case isa.OpLHU:
			g[in.Rt] = uint32(uint16(v))
		case isa.OpLL:
			g[in.Rt] = uint32(v)
			c.llBit = true
			c.llAddr = info.MemPaddr
		case isa.OpFLD:
			c.FPR[in.Rt] = f64frombits(v)
		}

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFSD:
		if !c.dataAccess(info, in, true) {
			return
		}
		var v uint64
		switch in.Op {
		case isa.OpSB:
			v = uint64(uint8(g[in.Rt]))
		case isa.OpSH:
			v = uint64(uint16(g[in.Rt]))
		case isa.OpSW:
			v = uint64(g[in.Rt])
		case isa.OpFSD:
			v = f64bits(c.FPR[in.Rt])
		}
		c.bus.WritePhys(info.MemPaddr, int(info.MemSize), v)
		c.pdInvalidateLine(info.MemPaddr)

	case isa.OpSC:
		if !c.dataAccess(info, in, true) {
			return
		}
		if c.llBit && c.llAddr == info.MemPaddr {
			c.bus.WritePhys(info.MemPaddr, 4, uint64(g[in.Rt]))
			c.pdInvalidateLine(info.MemPaddr)
			g[in.Rt] = 1
		} else {
			g[in.Rt] = 0
			info.SCFailed = true
			info.Mem = MemNone // no memory write happened
		}
		c.llBit = false

	case isa.OpCACHE:
		// Cache maintenance: translate for counting, no architectural effect
		// on data (caches are tag-only in this simulator). The timing models
		// perform the actual tag invalidation.
		va := g[in.Rs] + uint32(in.Imm)
		info.CacheOp = true
		info.CacheVaddr = va
		pa, xr, tlbed := c.translate(&c.duTLB, va&^3, false)
		if tlbed {
			info.TLBLookups++
		}
		switch xr {
		case xlatOK, xlatUncached:
			info.CachePaddr = pa
			info.CacheMapped = true
			c.pdInvalidateLine(pa)
		case xlatMiss:
			c.raise(info, isa.ExcTLBL, va, va < isa.KUSEGTop)
			return
		}

	default:
		c.raise(info, isa.ExcRI, 0, false)
		return
	}

	g[0] = 0
	c.PC = nextPC
	info.NextPC = nextPC
	return
}

// branch records a conditional branch outcome and updates nextPC.
func (c *CPU) branch(info *StepInfo, nextPC *uint32, taken bool, imm int32) {
	info.Branch = true
	info.BranchTaken = taken
	if taken {
		*nextPC = isa.BranchTarget(c.PC, imm)
	}
}

// dataAccess translates a load/store address, raising exceptions as needed.
// It returns false if an exception was taken.
func (c *CPU) dataAccess(info *StepInfo, in isa.Inst, write bool) bool {
	va := c.GPR[in.Rs] + uint32(in.Imm)
	size := in.MemSize()
	info.MemVaddr = va
	info.MemSize = uint8(size)
	if va&(uint32(size)-1) != 0 {
		code := uint8(isa.ExcAdEL)
		if write {
			code = isa.ExcAdES
		}
		c.raise(info, code, va, false)
		return false
	}
	pa, xr, tlbed := c.translate(&c.duTLB, va, write)
	if tlbed {
		info.TLBLookups++
	}
	switch xr {
	case xlatOK:
	case xlatUncached:
		info.MemUncached = true
	case xlatMiss:
		code := uint8(isa.ExcTLBL)
		if write {
			code = isa.ExcTLBS
		}
		c.raise(info, code, va, va < isa.KUSEGTop)
		return false
	case xlatInvalid:
		code := uint8(isa.ExcTLBL)
		if write {
			code = isa.ExcTLBS
		}
		c.raise(info, code, va, false)
		return false
	case xlatMod:
		c.raise(info, isa.ExcTLBMod, va, false)
		return false
	default:
		code := uint8(isa.ExcAdEL)
		if write {
			code = isa.ExcAdES
		}
		c.raise(info, code, va, false)
		return false
	}
	info.MemPaddr = pa
	if write {
		info.Mem = MemStore
	} else {
		info.Mem = MemLoad
	}
	return true
}

func (c *CPU) tlbWrite(idx uint32) {
	c.microInvalidate()
	hi := c.COP0[isa.C0EntryHi]
	lo := c.COP0[isa.C0EntryLo]
	c.TLB[idx] = TLBEntry{
		VPN:   hi >> isa.PageShift,
		ASID:  uint8(hi),
		PFN:   lo >> 12,
		V:     lo&EntryLoV != 0,
		D:     lo&EntryLoD != 0,
		G:     lo&EntryLoG != 0,
		InUse: true,
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// String summarises CPU state for debugging.
func (c *CPU) String() string {
	return fmt.Sprintf("pc=%08x status=%08x cause=%08x epc=%08x",
		c.PC, c.COP0[isa.C0Status], c.COP0[isa.C0Cause], c.COP0[isa.C0EPC])
}

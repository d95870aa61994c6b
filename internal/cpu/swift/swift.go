// Package swift is the functional fast-forward core: it retires
// instructions with no cache, power, or attribution bookkeeping, as fast
// as the host allows, while keeping architectural state bit-identical to
// the exact interpreter (internal/arch.StepInto) at every instruction
// boundary. It exists for positioning runs — skipping billions of cycles
// to a region of interest before switching to a detailed timing model —
// which is how complete-machine simulators make whole-OS workloads
// tractable (SimOS's "Embra" mode; DESIGN.md §12).
//
// The execution unit is the superblock: a run of decoded instructions
// starting at one virtual PC and ending at the first control-flow
// instruction, privileged/exceptional operation, page boundary, or size
// cap. Superblocks are built from the predecode cache (PR 3) and cached in
// a direct-mapped table keyed (virtual PC, physical PC, page generation);
// bumping a page's generation is an O(1) invalidation of every block on
// the page. Within a block, dispatch is a dense switch over internal/isa
// opcodes — no StepInfo, no per-instruction translation (micro-TLB checked
// loads/stores go straight to RAM bytes), no COUNT maintenance.
//
// Anything the fast path cannot reproduce exactly — exceptions, syscalls,
// TLB management, LL/SC, uncached/MMIO access, interrupt delivery — is
// delegated to arch.StepInto at the precise cycle, so software-visible
// state (including the TLBWR replacement pointer, which DecayRandom
// advances for fast instructions) matches the mipsy functional stream
// instruction for instruction. The machine layer drives the core in
// batches bounded by the next device event; the core ends a batch early
// after any uncached access so device timing (timer arming, disk DMA)
// is evaluated against an exact cycle counter.
package swift

import (
	"encoding/binary"
	"math"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

const (
	// sbCount is the direct-mapped superblock cache size (entries).
	sbCount = 8192
	// sbMaxOps caps a superblock's length; a 4 KB page bounds it anyway.
	sbMaxOps = 128
)

// xCount is the size of each direct-mapped host translation cache.
const xCount = 64

// xentry is one host-translation-cache slot: virtual page → physical page
// base (always < limit), valid while gen matches the core's xgen.
type xentry struct {
	vpn  uint32
	base uint32
	gen  uint32
}

// sbOp is one decoded instruction plus its precomputed control-flow
// target (branches and jumps resolve their destination at build time).
type sbOp struct {
	in  isa.Inst
	aux uint32
}

// sblock is one cached superblock. A block is valid for execution at
// (vpc, ppc) while its page generation matches; len(ops) == 0 is a cached
// "first instruction is slow" result.
type sblock struct {
	vpc  uint32
	ppc  uint32
	gen  uint32
	used bool
	ops  []sbOp
}

// Stats are the superblock cache telemetry counters.
type Stats struct {
	Hits          uint64 // block lookups served from the cache
	Misses        uint64 // lookups that (re)built a block
	Invalidations uint64 // page generation bumps (SMC stores, DMA)
	SlowSteps     uint64 // instructions delegated to arch.StepInto
}

// Core is the fast-forward execution engine: a machine core that passes no
// commits. Run charges whole batches to the collector, so fast-forward
// runs report functional results and totals, not per-mode power.
type Core struct {
	cpu *arch.CPU
	ram *mem.RAM
	mem []byte
	col *trace.Collector
	// sync publishes the exact cycle before every interpreter-delegated
	// step, so MMIO side effects observed during a slow step (timer
	// arming, disk submission times) read the cycle a per-cycle loop
	// would have shown them. Nil in harnesses without devices.
	sync arch.CycleSync

	// limit bounds the direct RAM fast path: page-aligned, below the MMIO
	// window and the end of memory, mirroring the predecode limit.
	limit uint32

	blocks []sblock
	// pageGen is the invalidation generation of each physical page below
	// limit; blocks record the generation they were built under.
	pageGen []uint32
	// codePage marks pages that ever held decoded instructions; only
	// stores into marked pages pay invalidation work.
	codePage []uint64

	// Host translation caches for the fast path: direct-mapped VPN-indexed
	// tables for data reads and data writes (the write side has passed the
	// TLB dirty-bit check), plus a one-page fetch cache (superblocks
	// rarely change page). They are valid only within a span of fast
	// execution: everything that can change a translation — TLB writes,
	// EntryHi/Status updates, ERET, exception entry — is a slow op, so
	// flushing them on every slow step keeps them exact. The flush is an
	// O(1) generation bump: an entry hits only when its gen matches xgen.
	// xgen cannot wrap within a run (it advances once per slow step, and
	// runs are bounded far below 2³² slow steps).
	rTLB  [xCount]xentry
	wTLB  [xCount]xentry
	xgen  uint32
	fVPN  uint32
	fBase uint32 // physical page base, always < limit

	scratch   arch.StepInfo
	committed uint64
	stats     Stats
}

// New builds a fast-forward core over the shared functional CPU. limit is
// the machine's predecode limit (RAM below the MMIO window): the region
// where loads, stores, and instruction fetches may bypass the bus.
func New(cpu *arch.CPU, ram *mem.RAM, col *trace.Collector, sync arch.CycleSync, limit uint32) *Core {
	if uint64(limit) > uint64(ram.Size()) {
		limit = uint32(ram.Size())
	}
	limit &^= isa.PageSize - 1
	pages := limit >> isa.PageShift
	return &Core{
		cpu:      cpu,
		ram:      ram,
		mem:      ram.Bytes(),
		col:      col,
		sync:     sync,
		limit:    limit,
		blocks:   make([]sblock, sbCount),
		pageGen:  make([]uint32, pages),
		codePage: make([]uint64, (pages+63)/64),
		xgen:     1,
		fVPN:     ^uint32(0),
	}
}

// xlatRead translates a data read through the direct-mapped read cache.
func (c *Core) xlatRead(va uint32) (uint32, bool) {
	vpn := va >> isa.PageShift
	e := &c.rTLB[vpn&(xCount-1)]
	if e.vpn == vpn && e.gen == c.xgen {
		return e.base + va&(isa.PageSize-1), true
	}
	return c.xlatReadFill(va)
}

// xlatReadFill consults the real translation path and caches the page
// when it is fast-path eligible (below limit). Failures and out-of-window
// addresses pass through uncached so the caller bails to the interpreter.
func (c *Core) xlatReadFill(va uint32) (uint32, bool) {
	pa, ok := c.cpu.DataTranslate(va, false)
	if !ok || pa >= c.limit {
		return pa, ok
	}
	vpn := va >> isa.PageShift
	c.rTLB[vpn&(xCount-1)] = xentry{vpn: vpn, base: pa &^ (isa.PageSize - 1), gen: c.xgen}
	return pa, true
}

// xlatWrite translates a data write through the direct-mapped write
// cache; a cached entry has already passed the TLB dirty-bit check.
func (c *Core) xlatWrite(va uint32) (uint32, bool) {
	vpn := va >> isa.PageShift
	e := &c.wTLB[vpn&(xCount-1)]
	if e.vpn == vpn && e.gen == c.xgen {
		return e.base + va&(isa.PageSize-1), true
	}
	return c.xlatWriteFill(va)
}

func (c *Core) xlatWriteFill(va uint32) (uint32, bool) {
	pa, ok := c.cpu.DataTranslate(va, true)
	if !ok || pa >= c.limit {
		return pa, ok
	}
	vpn := va >> isa.PageShift
	c.wTLB[vpn&(xCount-1)] = xentry{vpn: vpn, base: pa &^ (isa.PageSize - 1), gen: c.xgen}
	return pa, true
}

// fxlat translates an instruction fetch through the one-page fetch cache.
func (c *Core) fxlat(va uint32) (uint32, bool) {
	if va>>isa.PageShift == c.fVPN {
		return c.fBase + va&(isa.PageSize-1), true
	}
	pa, ok := c.cpu.FetchTranslate(va)
	if !ok || pa >= c.limit {
		return pa, ok
	}
	c.fVPN = va >> isa.PageShift
	c.fBase = pa &^ (isa.PageSize - 1)
	return pa, true
}

// flushXlat empties the host translation caches; called after every slow
// step, the only place a translation can change. The data caches flush by
// generation bump; the zero-value entries never match because xgen starts
// at 1 and only increments.
func (c *Core) flushXlat() {
	c.xgen++
	c.fVPN = ^uint32(0)
}

// Stats returns the superblock cache counters.
func (c *Core) Stats() Stats { return c.stats }

// Counters implements the machine Core interface.
func (c *Core) Counters() obs.CoreCounters {
	return obs.CoreCounters{
		Committed:       c.committed,
		SBHits:          c.stats.Hits,
		SBMisses:        c.stats.Misses,
		SBInvalidations: c.stats.Invalidations,
		SlowSteps:       c.stats.SlowSteps,
	}
}

// InvalidateCode drops every superblock overlapping [pa, pa+n): the DMA
// path, where device writes land in RAM behind the store fast path.
func (c *Core) InvalidateCode(pa uint32, n int) {
	if n <= 0 {
		return
	}
	end := uint64(pa) + uint64(n)
	if end > uint64(c.limit) {
		end = uint64(c.limit)
	}
	for p := uint64(pa) >> isa.PageShift; p<<isa.PageShift < end; p++ {
		if c.codePage[p>>6]&(1<<(p&63)) != 0 {
			c.pageGen[p]++
			c.stats.Invalidations++
		}
	}
}

// markCodePage records that the page containing pa holds decoded
// instructions, making future stores into it pay the invalidation check.
func (c *Core) markCodePage(pa uint32) {
	if pa < c.limit {
		p := pa >> isa.PageShift
		c.codePage[p>>6] |= 1 << (p & 63)
	}
}

// noteStore is the write side of self-modifying-code tracking: a store
// into a page that ever held code drops the page's predecoded lines and
// bumps its generation, killing every superblock built from it. Returns
// whether code was invalidated (the running block must stop: it may have
// cached the very instructions just overwritten).
func (c *Core) noteStore(pa uint32, size int) bool {
	p := pa >> isa.PageShift
	if c.codePage[p>>6]&(1<<(p&63)) == 0 {
		return false
	}
	c.cpu.InvalidatePredecode(pa, size)
	c.pageGen[p]++
	c.stats.Invalidations++
	return true
}

// Run executes up to budget cycles starting at cycle start and returns
// the cycles consumed (ran) and instructions retired (excluding WAIT
// idling, matching mipsy's committed-instruction accounting), charging
// both to the collector at batch end (AddCycles splits at sample-window
// boundaries, so window accounting stays exact). commit is never called:
// the fast path maintains no StepInfo. Run consumes at least one cycle
// when budget >= 1 and the CPU is not halted. The batch ends early after
// any uncached (MMIO) access or halt so the machine re-evaluates device
// timing; interrupt and WAIT state are checked exactly where per-cycle
// stepping would check them.
func (c *Core) Run(start, budget uint64, _ func(*arch.StepInfo)) (ran, retired uint64) {
	cpu := c.cpu
	for ran < budget {
		if cpu.Halted {
			break
		}
		if cpu.PendingInterrupt() {
			// Delivery rewrites PC/Cause/EPC exactly like per-cycle
			// execution: interrupts are only raised between batches or at
			// uncached-access batch ends, so checking here is exact.
			stop, counted := c.slowStep(start + ran)
			ran++
			if counted {
				retired++
			}
			if stop {
				break
			}
			continue
		}
		if cpu.Waiting() {
			// No enabled interrupt is pending, and none can arrive before
			// the next machine event, which bounds this batch: the rest of
			// the budget is pure idle time.
			ran = budget
			break
		}
		var b *sblock
		vpc := cpu.PC
		if vpc&3 == 0 {
			if ppc, ok := c.fxlat(vpc); ok && ppc < c.limit {
				b = c.lookup(vpc, ppc)
				if b == nil {
					b = c.build(vpc, ppc, budget-ran)
				}
			}
		}
		if b == nil || len(b.ops) == 0 {
			// Unaligned/unmapped/uncached PC or a slow first instruction.
			stop, counted := c.slowStep(start + ran)
			ran++
			if counted {
				retired++
			}
			if stop {
				break
			}
			continue
		}
		n := len(b.ops)
		if rem := budget - ran; uint64(n) > rem {
			n = int(rem)
		}
		done, flag := c.exec(b, n)
		ran += uint64(done)
		retired += uint64(done)
		if flag == execSlow && ran < budget {
			stop, counted := c.slowStep(start + ran)
			ran++
			if counted {
				retired++
			}
			if stop {
				break
			}
		}
	}
	c.committed += retired
	c.col.AddCycles(ran)
	c.col.AddInst(retired)
	return ran, retired
}

// slowStep runs one instruction (or interrupt delivery) through the exact
// interpreter at the given cycle. It returns stop=true when the batch
// must end — after an uncached access (a device register may have changed
// machine timing) or halt — and counted=false for WAIT idling and
// halted steps, mirroring the timing models' commit accounting.
func (c *Core) slowStep(cycle uint64) (stop, counted bool) {
	if c.sync != nil {
		c.sync.SyncCycle(cycle)
	}
	info := &c.scratch
	c.cpu.StepInto(cycle, info)
	c.stats.SlowSteps++
	c.flushXlat()
	if info.Fetched {
		c.markCodePage(info.PhysPC)
	}
	if info.Mem == arch.MemStore && !info.MemUncached && info.MemPaddr < c.limit {
		// The interpreter already dropped the predecoded line; kill the
		// page's superblocks too (SC and kseg-mapped stores land here).
		p := info.MemPaddr >> isa.PageShift
		if c.codePage[p>>6]&(1<<(p&63)) != 0 {
			c.pageGen[p]++
			c.stats.Invalidations++
		}
	}
	return info.MemUncached || info.Halted, !info.Waiting && !info.Halted
}

// sbIndex maps a virtual PC to its direct-mapped superblock slot.
func sbIndex(vpc uint32) uint32 {
	h := vpc >> 2
	return (h ^ h>>13) & (sbCount - 1)
}

// lookup returns the cached superblock for (vpc, ppc) when present and
// its build generation still matches the page.
func (c *Core) lookup(vpc, ppc uint32) *sblock {
	b := &c.blocks[sbIndex(vpc)]
	if b.used && b.vpc == vpc && b.ppc == ppc && b.gen == c.pageGen[ppc>>isa.PageShift] {
		c.stats.Hits++
		return b
	}
	return nil
}

// build decodes a new superblock at (vpc, ppc), replacing whatever the
// slot held. Blocks never cross a page boundary (one generation check
// validates the whole block) and stop at the first control-flow or
// slow-path instruction. budget caps the length so tiny batch tails do
// not pay for decoding instructions they cannot execute.
func (c *Core) build(vpc, ppc uint32, budget uint64) *sblock {
	c.stats.Misses++
	b := &c.blocks[sbIndex(vpc)]
	b.vpc, b.ppc, b.used = vpc, ppc, true
	b.gen = c.pageGen[ppc>>isa.PageShift]
	b.ops = b.ops[:0]
	c.markCodePage(ppc)

	max := (isa.PageSize - uint64(ppc&(isa.PageSize-1))) / 4
	if max > sbMaxOps {
		max = sbMaxOps
	}
	if budget < max {
		max = budget
	}
	for i := uint32(0); uint64(i) < max; i++ {
		in := c.cpu.DecodeAt(ppc + i*4)
		if !fastOp(in.Op) {
			break
		}
		va := vpc + i*4
		var aux uint32
		switch in.Op {
		case isa.OpJ, isa.OpJAL:
			aux = va&0xF000_0000 | in.Target
		case isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ,
			isa.OpBGTZ, isa.OpBC1F, isa.OpBC1T:
			aux = isa.BranchTarget(va, in.Imm)
		}
		b.ops = append(b.ops, sbOp{in: in, aux: aux})
		if controlOp(in.Op) {
			break
		}
	}
	return b
}

// fastOp reports whether the dispatch switch in exec implements op.
// Everything else — exceptions, privileged state, LL/SC, CACHE — runs
// through the interpreter. The set is an explicit allow-list so an ISA
// extension defaults to exact (slow) execution.
func fastOp(op isa.Op) bool {
	switch op {
	case isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLLV, isa.OpSRLV, isa.OpSRAV,
		isa.OpJR, isa.OpJALR, isa.OpJ, isa.OpJAL,
		isa.OpMUL, isa.OpDIV, isa.OpREM, isa.OpDIVU, isa.OpREMU,
		isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpSUBU,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOR, isa.OpSLT, isa.OpSLTU,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ,
		isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
		isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI,
		isa.OpMFC1, isa.OpMTC1, isa.OpBC1F, isa.OpBC1T,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFSQRT,
		isa.OpFABS, isa.OpFMOV, isa.OpFNEG, isa.OpCVTDW, isa.OpCVTWD,
		isa.OpFCEQ, isa.OpFCLT, isa.OpFCLE,
		isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFLD, isa.OpFSD:
		return true
	}
	return false
}

// controlOp reports whether op rewrites PC: superblock terminators.
func controlOp(op isa.Op) bool {
	switch op {
	case isa.OpJR, isa.OpJALR, isa.OpJ, isa.OpJAL,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ,
		isa.OpBGTZ, isa.OpBC1F, isa.OpBC1T:
		return true
	}
	return false
}

type execFlag uint8

const (
	execOK   execFlag = iota // ran to the end of the block or budget
	execSlow                 // stopped before an op needing the interpreter
	execSMC                  // a store invalidated code: re-lookup the block
)

// exec retires up to n ops of block b, mirroring arch.StepInto's execute
// switch exactly (including writing then re-zeroing r0, so JALR with
// rd == rs == r0 observes the same value the interpreter would). It
// returns the number of instructions retired. On execSlow, the op at the
// returned index did not execute; PC points at it for re-execution. The
// TLBWR replacement pointer decays once per retired instruction via
// DecayRandom.
func (c *Core) exec(b *sblock, n int) (int, execFlag) {
	cpu := c.cpu
	g := &cpu.GPR
	limit := c.limit
	ram := c.mem
	ops := b.ops
	vpc := b.vpc
	i := 0
	for ; i < n; i++ {
		in := &ops[i].in
		switch in.Op {
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
			t := g[in.Rs]
			cpu.DecayRandom(i + 1)
			cpu.PC = t
			return i + 1, execOK
		case isa.OpJALR:
			// Link before reading rs (rd == rs jumps to the link address),
			// then re-zero r0: the interpreter's write/zero order.
			g[in.Rd] = vpc + 4*uint32(i) + 4
			t := g[in.Rs]
			g[0] = 0
			cpu.DecayRandom(i + 1)
			cpu.PC = t
			return i + 1, execOK
		case isa.OpJ:
			cpu.DecayRandom(i + 1)
			cpu.PC = ops[i].aux
			return i + 1, execOK
		case isa.OpJAL:
			g[isa.RegRA] = vpc + 4*uint32(i) + 4
			cpu.DecayRandom(i + 1)
			cpu.PC = ops[i].aux
			return i + 1, execOK

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
			return c.takeBranch(b, i, int32(g[in.Rs]) < 0)
		case isa.OpBGEZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) >= 0)
		case isa.OpBEQ:
			return c.takeBranch(b, i, g[in.Rs] == g[in.Rt])
		case isa.OpBNE:
			return c.takeBranch(b, i, g[in.Rs] != g[in.Rt])
		case isa.OpBLEZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) <= 0)
		case isa.OpBGTZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) > 0)

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

		case isa.OpMFC1:
			g[in.Rt] = uint32(math.Float64bits(cpu.FPR[in.Rs]))
		case isa.OpMTC1:
			cpu.FPR[in.Rs] = math.Float64frombits(uint64(g[in.Rt]))
		case isa.OpBC1F:
			return c.takeBranch(b, i, !cpu.FCC)
		case isa.OpBC1T:
			return c.takeBranch(b, i, cpu.FCC)
		case isa.OpFADD:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] + cpu.FPR[in.Rt]
		case isa.OpFSUB:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] - cpu.FPR[in.Rt]
		case isa.OpFMUL:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] * cpu.FPR[in.Rt]
		case isa.OpFDIV:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] / cpu.FPR[in.Rt]
		case isa.OpFSQRT:
			cpu.FPR[in.Rd] = math.Sqrt(cpu.FPR[in.Rs])
		case isa.OpFABS:
			// Not math.Abs: the interpreter's compare-and-negate keeps -0
			// bit patterns, and bit-identity is the contract.
			v := cpu.FPR[in.Rs]
			if v < 0 {
				v = -v
			}
			cpu.FPR[in.Rd] = v
		case isa.OpFMOV:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs]
		case isa.OpFNEG:
			cpu.FPR[in.Rd] = -cpu.FPR[in.Rs]
		case isa.OpCVTDW:
			cpu.FPR[in.Rd] = float64(int32(math.Float64bits(cpu.FPR[in.Rs])))
		case isa.OpCVTWD:
			cpu.FPR[in.Rd] = math.Float64frombits(uint64(uint32(int32(cpu.FPR[in.Rs]))))
		case isa.OpFCEQ:
			cpu.FCC = cpu.FPR[in.Rs] == cpu.FPR[in.Rt]
		case isa.OpFCLT:
			cpu.FCC = cpu.FPR[in.Rs] < cpu.FPR[in.Rt]
		case isa.OpFCLE:
			cpu.FCC = cpu.FPR[in.Rs] <= cpu.FPR[in.Rt]

		case isa.OpLB:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			g[in.Rt] = uint32(int8(ram[pa]))
		case isa.OpLBU:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			g[in.Rt] = uint32(ram[pa])
		case isa.OpLH:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			g[in.Rt] = uint32(int16(binary.LittleEndian.Uint16(ram[pa:])))
		case isa.OpLHU:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			g[in.Rt] = uint32(binary.LittleEndian.Uint16(ram[pa:]))
		case isa.OpLW:
			va := g[in.Rs] + uint32(in.Imm)
			if va&3 != 0 {
				goto bail
			}
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			g[in.Rt] = binary.LittleEndian.Uint32(ram[pa:])
		case isa.OpFLD:
			va := g[in.Rs] + uint32(in.Imm)
			if va&7 != 0 {
				goto bail
			}
			pa, ok := c.xlatRead(va)
			if !ok || pa >= limit {
				goto bail
			}
			cpu.FPR[in.Rt] = math.Float64frombits(binary.LittleEndian.Uint64(ram[pa:]))

		case isa.OpSB:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := c.xlatWrite(va)
			if !ok || pa >= limit {
				goto bail
			}
			ram[pa] = uint8(g[in.Rt])
			c.ram.MarkDirtyPage(pa)
			if c.noteStore(pa, 1) {
				i++
				goto smc
			}
		case isa.OpSH:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := c.xlatWrite(va)
			if !ok || pa >= limit {
				goto bail
			}
			binary.LittleEndian.PutUint16(ram[pa:], uint16(g[in.Rt]))
			c.ram.MarkDirtyPage(pa)
			if c.noteStore(pa, 2) {
				i++
				goto smc
			}
		case isa.OpSW:
			va := g[in.Rs] + uint32(in.Imm)
			if va&3 != 0 {
				goto bail
			}
			pa, ok := c.xlatWrite(va)
			if !ok || pa >= limit {
				goto bail
			}
			binary.LittleEndian.PutUint32(ram[pa:], g[in.Rt])
			c.ram.MarkDirtyPage(pa)
			if c.noteStore(pa, 4) {
				i++
				goto smc
			}
		case isa.OpFSD:
			va := g[in.Rs] + uint32(in.Imm)
			if va&7 != 0 {
				goto bail
			}
			pa, ok := c.xlatWrite(va)
			if !ok || pa >= limit {
				goto bail
			}
			binary.LittleEndian.PutUint64(ram[pa:], math.Float64bits(cpu.FPR[in.Rt]))
			c.ram.MarkDirtyPage(pa)
			if c.noteStore(pa, 8) {
				i++
				goto smc
			}
		}
		g[0] = 0
	}
	// Block (or budget) exhausted on a fall-through instruction.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	return i, execOK
bail:
	// ops[i] needs the interpreter (misalignment, TLB refill/mod/invalid,
	// uncached or MMIO access): it has not executed. PC points at it.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	return i, execSlow
smc:
	// ops[i-1] was a store into a code page. It completed, but the rest of
	// this block may hold stale decodes of the bytes it overwrote.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	return i, execSMC
}

// takeBranch finishes a superblock at a conditional branch, the common
// block terminator: taken goes to the precomputed target, not-taken
// falls through to the next sequential instruction.
func (c *Core) takeBranch(b *sblock, i int, taken bool) (int, execFlag) {
	cpu := c.cpu
	if taken {
		cpu.PC = b.ops[i].aux
	} else {
		cpu.PC = b.vpc + 4*uint32(i) + 4
	}
	cpu.DecayRandom(i + 1)
	return i + 1, execOK
}

func b2u(bl bool) uint32 {
	if bl {
		return 1
	}
	return 0
}

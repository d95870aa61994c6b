package swift

// Randomized-program lockstep: two identical CPUs over identical flat
// memories run the same chaotic instruction stream — one through the
// fast-forward core at budget 1 (so every superblock mechanism still
// engages: build, cache, SMC invalidation, slow-op delegation), one
// through the raw interpreter — and their complete architectural state
// must match after every single cycle.
//
// The programs mix curated encodings of every fast-path opcode (with
// random registers, shifts, and immediates, including the JALR rd == rs
// link-then-jump case), loads and stores aimed at a partially-mapped,
// partially-writable useg window, local branches, and completely random
// words that decode to anything at all — privileged ops, syscalls,
// reserved instructions. Exception vectors land in the same randomized
// memory, so fault handling "runs" random code too. Whatever happens,
// both sides must agree bit for bit.

import (
	"math/rand"
	"sync"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

// flatBus adapts mem.RAM to arch.Bus with no MMIO: out-of-range reads
// return zero, out-of-range writes vanish, as RAM itself guarantees.
type flatBus struct{ ram *mem.RAM }

func (b flatBus) ReadPhys(pa uint32, size int) uint64     { return b.ram.Read(pa, size) }
func (b flatBus) WritePhys(pa uint32, size int, v uint64) { b.ram.Write(pa, size, v) }

const (
	lsRAMBytes = 1 << 20 // flat physical memory per side
	lsCodeBase = 0x20000 // physical base of the randomized code region
	lsCodeLen  = 0x20000 // bytes of random words (covers exception vectors)
	lsSteps    = 4000    // cycles per seed
)

// lsProgram generates one randomized code image.
func lsProgram(rng *rand.Rand) []byte {
	buf := make([]byte, lsCodeLen)
	put := func(off int, w uint32) {
		buf[off] = byte(w)
		buf[off+1] = byte(w >> 8)
		buf[off+2] = byte(w >> 16)
		buf[off+3] = byte(w >> 24)
	}
	reg := func() uint8 { return uint8(rng.Intn(32)) }
	aluOps := []isa.Op{
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLLV, isa.OpSRLV, isa.OpSRAV,
		isa.OpMUL, isa.OpDIV, isa.OpREM, isa.OpDIVU, isa.OpREMU,
		isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpSUBU,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOR, isa.OpSLT, isa.OpSLTU,
		isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
		isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI,
	}
	fpOps := []isa.Op{
		isa.OpMFC1, isa.OpMTC1, isa.OpFADD, isa.OpFSUB, isa.OpFMUL,
		isa.OpFDIV, isa.OpFSQRT, isa.OpFABS, isa.OpFMOV, isa.OpFNEG,
		isa.OpCVTDW, isa.OpCVTWD, isa.OpFCEQ, isa.OpFCLT, isa.OpFCLE,
	}
	memOps := []isa.Op{
		isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFLD, isa.OpFSD,
	}
	brOps := []isa.Op{
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ,
		isa.OpBGTZ, isa.OpBC1F, isa.OpBC1T,
	}
	for off := 0; off < lsCodeLen; off += 4 {
		var w uint32
		switch p := rng.Intn(100); {
		case p < 45: // integer/shift/immediate ALU
			op := aluOps[rng.Intn(len(aluOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(), Rd: reg(),
				Shamt: uint8(rng.Intn(32)), Imm: int32(int16(rng.Uint32())),
			})
		case p < 55: // floating point
			op := fpOps[rng.Intn(len(fpOps))]
			w = isa.Encode(isa.Inst{Op: op, Rs: reg(), Rt: reg(), Rd: reg()})
		case p < 75: // loads/stores: small offsets around the seeded bases
			op := memOps[rng.Intn(len(memOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(),
				Imm: int32(int16(rng.Intn(0x4000) - 0x2000)),
			})
		case p < 90: // local branches
			op := brOps[rng.Intn(len(brOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(),
				Imm: int32(rng.Intn(256) - 128),
			})
		case p < 94: // jump-register pair, including JALR rd == rs
			rs := reg()
			rd := rs
			if rng.Intn(2) == 0 {
				rd = reg()
			}
			if rng.Intn(2) == 0 {
				w = isa.Encode(isa.Inst{Op: isa.OpJR, Rs: rs})
			} else {
				w = isa.Encode(isa.Inst{Op: isa.OpJALR, Rs: rs, Rd: rd})
			}
		case p < 97: // absolute jumps kept inside the code region
			t := lsCodeBase + uint32(rng.Intn(lsCodeLen))&^3
			op := isa.OpJ
			if rng.Intn(2) == 0 {
				op = isa.OpJAL
			}
			w = isa.Encode(isa.Inst{Op: op, Target: t})
		default: // raw random word: reserved, privileged, anything
			w = rng.Uint32()
		}
		put(off, w)
	}
	return buf
}

// lsSide is one machine half: a CPU over a flat RAM.
type lsSide struct {
	cpu *arch.CPU
	ram *mem.RAM
}

// lsSetup builds one side with the given code image and seeded state.
// Both sides are built from the same rng sequence, so their initial
// states are identical.
func lsSetup(code []byte, rng *rand.Rand) lsSide {
	ram := mem.NewRAM(lsRAMBytes)
	cpu := arch.New(flatBus{ram})
	ram.LoadSegment(lsCodeBase, code)

	// A partially-usable useg window: pages 16..23 map to physical pages
	// right above the code region. One invalid and two clean (read-only)
	// pages make TLBL and TLBMod faults part of normal traffic.
	for i := 0; i < 8; i++ {
		cpu.TLB[i] = arch.TLBEntry{
			VPN:   uint32(16 + i),
			PFN:   uint32((lsCodeBase+lsCodeLen)>>isa.PageShift) + uint32(i),
			V:     i != 3,
			D:     i != 5 && i != 6,
			G:     true,
			InUse: true,
		}
	}
	// Registers point into (and around) the mapped window so memory ops
	// hit valid pages, clean pages, the invalid page, and unmapped space.
	for r := 1; r < 32; r++ {
		if rng.Intn(2) == 0 {
			cpu.GPR[r] = uint32(16<<isa.PageShift) + uint32(rng.Intn(8<<isa.PageShift))
		} else {
			cpu.GPR[r] = rng.Uint32()
		}
	}
	for r := 0; r < 32; r++ {
		cpu.FPR[r] = float64(int32(rng.Uint32())) / 16.0
	}
	cpu.PC = isa.KSEG0Base + lsCodeBase
	return lsSide{cpu: cpu, ram: ram}
}

func TestLockstepRandomPrograms(t *testing.T) {
	var total struct {
		sync.Mutex
		Stats
	}
	// The seeds run as parallel subtests inside a group so the aggregate
	// coverage check below runs after all of them finish. A single seed
	// may settle into a tight fast loop; across seeds, every mechanism
	// (block builds, slow-op delegation, SMC invalidation) must fire.
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			seed := seed
			t.Run("", func(t *testing.T) {
				t.Parallel()
				code := lsProgram(rand.New(rand.NewSource(seed)))
				fastSide := lsSetup(code, rand.New(rand.NewSource(seed*977)))
				refSide := lsSetup(code, rand.New(rand.NewSource(seed*977)))
				core := New(fastSide.cpu, fastSide.ram, trace.NewCollector(1_000_000), nil, lsRAMBytes)

				var info arch.StepInfo
				retired := uint64(0)
				for cycle := uint64(0); cycle < lsSteps; cycle++ {
					ran, n := core.Run(cycle, 1, nil)
					if ran != 1 {
						t.Fatalf("cycle %d: Run consumed %d cycles, want 1", cycle, ran)
					}
					retired += n
					refSide.cpu.StepInto(cycle, &info)

					sf, sr := fastSide.cpu.Snapshot(), refSide.cpu.Snapshot()
					sf.COP0[isa.C0Count], sr.COP0[isa.C0Count] = 0, 0
					if sf != sr {
						t.Fatalf("seed %d: state diverged at cycle %d:\nswift: pc=%08x gpr=%x random=%d\nref:   pc=%08x gpr=%x random=%d",
							seed, cycle, sf.PC, sf.GPR, sf.Random, sr.PC, sr.GPR, sr.Random)
					}
					if sf.Wait {
						// With interrupts impossible here, WAIT is terminal on
						// both sides; the snapshots above already agreed.
						break
					}
				}
				if retired == 0 {
					t.Fatalf("seed %d: vacuous run: nothing retired", seed)
				}
				fb, rb := fastSide.ram.Bytes(), refSide.ram.Bytes()
				for i := range fb {
					if fb[i] != rb[i] {
						t.Fatalf("seed %d: memory diverged at pa=%#x: swift=%#x ref=%#x",
							seed, i, fb[i], rb[i])
					}
				}
				st := core.Stats()
				total.Lock()
				total.Hits += st.Hits
				total.Misses += st.Misses
				total.Invalidations += st.Invalidations
				total.SlowSteps += st.SlowSteps
				total.Unlock()
			})
		}
	})
	if total.Hits == 0 || total.Misses == 0 || total.SlowSteps == 0 {
		t.Fatalf("degenerate corpus: aggregate stats %+v", total.Stats)
	}
}

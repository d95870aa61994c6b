package machine

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"softwatt/internal/disk"
	"softwatt/internal/isa"
	"softwatt/internal/kern"
	"softwatt/internal/trace"
)

// devSrc exercises the simulator MMIO surface from user mode indirectly
// (via syscalls) and directly where architecture allows.
const devSrc = `
        .org 0x00400000
_start:
        # gettime twice: the second reading must be later (BSD service)
        li   v0, 7
        syscall
        move s0, v0
        li   v0, 7
        syscall
        sltu s1, s0, v0       # 1 if time advanced
        # exit with 0 if ok, 3 otherwise
        li   a0, 3
        beqz s1, bad
        li   a0, 0
bad:
        li   v0, 1
        syscall
`

func TestGettimeAdvances(t *testing.T) {
	w := buildWorkload(t, "dev", devSrc, nil)
	m, err := New(testConfig(CoreMipsy), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 0 {
		t.Fatalf("time did not advance (exit %d)", m.ExitCode())
	}
}

func TestClockServiceTicks(t *testing.T) {
	// A long-running busy loop must accumulate clock-service invocations at
	// the configured timer period.
	src := `
        .org 0x00400000
_start:
        li   t0, 400000
loop:   addiu t0, t0, -1
        bnez t0, loop
        li   a0, 0
        li   v0, 1
        syscall
`
	w := buildWorkload(t, "tick", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.TimerCycles = 20000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	ticks := m.Collector().ServiceStats(trace.SvcClock).Invocations
	want := m.Cycle() / 20000
	if ticks < want/2 || ticks > want+2 {
		t.Fatalf("clock ticks = %d over %d cycles (period 20000)", ticks, m.Cycle())
	}
}

func TestTimerDisabled(t *testing.T) {
	src := `
        .org 0x00400000
_start:
        li   t0, 100000
loop:   addiu t0, t0, -1
        bnez t0, loop
        li   a0, 0
        li   v0, 1
        syscall
`
	w := buildWorkload(t, "notick", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.TimerCycles = 0
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := m.Collector().ServiceStats(trace.SvcClock).Invocations; n != 0 {
		t.Fatalf("clock ticked %d times with the timer off", n)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	src := `
        .org 0x00400000
_start:
loop:   b loop
`
	w := buildWorkload(t, "hang", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.MaxCycles = 200_000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err == nil {
		t.Fatal("runaway workload did not error")
	}
	if m.Halted() {
		t.Fatal("machine claims to have halted")
	}
}

// submitDiskRead programs the disk controller's registers for a one-sector
// read into dma and issues the command, as the kernel driver does.
func submitDiskRead(m *Machine, dma uint32) {
	m.WritePhys(kern.DiskSector, 4, 0)
	m.WritePhys(kern.DiskCount, 4, 1)
	m.WritePhys(kern.DiskDMA, 4, uint64(dma))
	m.WritePhys(kern.DiskCmd, 4, kern.DiskCmdRead)
}

// TestDiskDMAOutOfRAMRejected: a DMA address past the end of RAM (here one
// whose 32-bit end wraps) must fail at submission through the hardware
// error path — console message plus disk IRQ — instead of being accepted
// and slicing outside RAM when the transfer completes.
func TestDiskDMAOutOfRAMRejected(t *testing.T) {
	cfg := testConfig(CoreMipsy)
	ramEnd := uint32(cfg.RAMBytes)
	for _, tc := range []struct {
		dma uint32
		ok  bool
	}{
		{0x0010_0000, true},
		{ramEnd - disk.SectorSize, true},
		{ramEnd - disk.SectorSize + 1, false},
		{0xFFFF_F000, false},
	} {
		m, err := New(cfg, buildWorkload(t, "hello", helloSrc, nil))
		if err != nil {
			t.Fatal(err)
		}
		submitDiskRead(m, tc.dma)
		if m.Disk().Busy() != tc.ok {
			t.Errorf("dma %#x: disk busy=%v, want %v", tc.dma, m.Disk().Busy(), tc.ok)
		}
		if tc.ok {
			// Complete the transfer: it must land inside RAM.
			m.Disk().Advance(m.Disk().NextEvent())
			continue
		}
		if !strings.Contains(m.Console(), "[disk error") {
			t.Errorf("dma %#x: no disk error on the console: %q", tc.dma, m.Console())
		}
		if m.CPU().IP&(1<<isa.IntDisk) == 0 {
			t.Errorf("dma %#x: disk IRQ not raised", tc.dma)
		}
	}
}

// TestRestoreRejectsPendingDMAOutOfRAM: a checkpoint whose in-flight disk
// request would DMA outside RAM is refused at restore, not resumed into a
// host panic at the request's completion.
func TestRestoreRejectsPendingDMAOutOfRAM(t *testing.T) {
	cfg := testConfig(CoreMipsy)
	w := buildWorkload(t, "hello", helloSrc, nil)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	const dma = 0x0345_6000
	submitDiskRead(m, dma)
	if !m.Disk().Busy() {
		t.Fatalf("valid request not accepted: %q", m.Console())
	}
	data := m.Checkpoint()

	// The DMA address appears twice: the latched controller register and
	// the pending request. Point both past the end of RAM.
	var old, bad [4]byte
	binary.LittleEndian.PutUint32(old[:], dma)
	binary.LittleEndian.PutUint32(bad[:], 0xFFFF_F000)
	if n := bytes.Count(data, old[:]); n != 2 {
		t.Fatalf("DMA address occurs %d times in the checkpoint, want 2", n)
	}
	data = bytes.ReplaceAll(data, old[:], bad[:])

	fresh, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(data); err == nil || !strings.Contains(err.Error(), "DMA") {
		t.Fatalf("restore of out-of-RAM pending DMA: err = %v, want a DMA range error", err)
	}
}

func TestWorkloadSegmentOutsideUsegRejected(t *testing.T) {
	src := `
        .org 0x80000000
_start: nop
`
	w := buildWorkload(t, "bad", src, nil)
	if _, err := New(testConfig(CoreMipsy), w); err == nil {
		t.Fatal("kernel-space workload accepted")
	}
}

func TestSampleWindowsCoverRun(t *testing.T) {
	w := buildWorkload(t, "hello", helloSrc, nil)
	cfg := testConfig(CoreMipsy)
	cfg.WindowCycles = 5000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	samples := m.Collector().Finish()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	var covered uint64
	for _, s := range samples {
		for mo := range s.Mode {
			covered += s.Mode[mo].Cycles
		}
	}
	if covered != m.Collector().TotalCycles() {
		t.Fatalf("windows cover %d of %d cycles", covered, m.Collector().TotalCycles())
	}
}

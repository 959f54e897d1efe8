package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark is gated on is a small VM on a shared host,
// and the host's speed drifts: over tens of minutes every time a run
// measures, CPU time included, moves together by 20-30 %, following what
// the neighbours do to the memory system (README.md has the runs). No
// statistic of one run's ops can take that out, because the whole run is
// inside it. So a run also times a fixed piece of work of its own, which
// no change to the store can touch, between its ops; a time-based metric
// is reported as measured ÷ (probe as measured ÷ probe on the quiet
// reference host): the time the op would take at the reference host's
// speed. One scalar per phase scales every sample alike, so medians and
// percentiles stay those of the ops, and a regression moves them by what
// it would move the raw numbers. The raw numbers are printed beside them.

// probeNominalMS is what one probe takes on the reference host when its
// neighbours are quiet. It fixes the unit of every time-based metric:
// changing it rescales them all.
const probeNominalMS = 0.9

// probeEvery is how often each client stops for a probe (5 ms or so).
const probeEvery = 100 * time.Millisecond

// probeSlots is the length of the probe's cycle of 4-byte slots: 8 MiB,
// four times a core's L2.
const probeSlots = 2 << 20

// probe is the fixed work and the samples of the current phase.
type probe struct {
	// chain is one random cycle through probeSlots little-endian uint32
	// slots, each holding the index of the next. It is mapped, not
	// allocated: on the heap the collector would count it as live and let
	// the heap grow by as much again, and peak_rss_mb would be mostly probe.
	chain []byte
	path  string // a file of one 4 KiB block

	mu      sync.Mutex
	samples []float64 // ms
	spent   time.Duration
	sink    uint64 // keeps the loops' results alive
}

// newProbe makes a probe whose file is in dir.
func newProbe(dir string) (*probe, error) {
	chain, err := syscall.Mmap(-1, 0, 4*probeSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: mmap: %w", err)
	}
	p := &probe{chain: chain, path: filepath.Join(dir, "probe.dat")}
	// Sattolo's shuffle, in place: a uniformly random permutation with one
	// cycle.
	slot := func(i int) []byte { return chain[4*i : 4*i+4] }
	for i := 0; i < probeSlots; i++ {
		binary.LittleEndian.PutUint32(slot(i), uint32(i))
	}
	rnd := rand.New(rand.NewSource(1))
	for i := probeSlots - 1; i > 0; i-- {
		a, b := slot(i), slot(rnd.Intn(i))
		x, y := binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b)
		binary.LittleEndian.PutUint32(a, y)
		binary.LittleEndian.PutUint32(b, x)
	}
	return p, os.WriteFile(p.path, make([]byte, 4096), 0o644)
}

// close unmaps the cycle.
func (p *probe) close() {
	if p != nil {
		_ = syscall.Munmap(p.chain) // the mapping is this probe's own; nothing to do about a failure
	}
}

// run takes one sample: the geometric mean of three times, each of which
// the host's interference moves and the store's code does not — 20,000
// dependent loads (memory latency), one sequential pass over the 8 MiB
// (bandwidth), and 40 open-read-close rounds on a file in the work
// directory (the kernel's side).
func (p *probe) run() {
	if p == nil {
		return
	}
	t0 := time.Now()
	k := uint32(0)
	for i := 0; i < 20000; i++ {
		k = binary.LittleEndian.Uint32(p.chain[4*k:])
	}
	t1 := time.Now()
	var sum uint64
	for i := 0; i < len(p.chain); i += 8 {
		sum += binary.LittleEndian.Uint64(p.chain[i:])
	}
	t2 := time.Now()
	var block [4096]byte // two clients may be probing at once
	for i := 0; i < 40; i++ {
		// newProbe wrote the file; were it gone, the sample would only be short.
		if f, err := os.Open(p.path); err == nil {
			n, _ := f.ReadAt(block[:], 0)
			sum += uint64(n)
			f.Close()
		}
	}
	t3 := time.Now()
	ms := math.Cbrt(float64(t1.Sub(t0))*float64(t2.Sub(t1))*float64(t3.Sub(t2))) / 1e6
	p.mu.Lock()
	p.samples = append(p.samples, ms)
	p.spent += t3.Sub(t0)
	p.sink += uint64(k) + sum
	p.mu.Unlock()
}

// take ends a phase: it returns how many times slower than the quiet
// reference host this one ran the phase's median probe (1 if there was
// none, or no probe), and the time the probes took; then it forgets the
// samples.
func (p *probe) take() (slowdown float64, spent time.Duration) {
	if p == nil {
		return 1, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	slowdown = 1
	if len(p.samples) > 0 {
		sort.Float64s(p.samples)
		slowdown = quantile(p.samples, 0.5) / probeNominalMS
	}
	spent = p.spent
	p.samples, p.spent = p.samples[:0], 0
	return slowdown, spent
}

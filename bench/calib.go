package main

import (
	"sync"
	"time"
)

// The box this benchmark runs on is shared: for stretches of seconds to hours
// everything on it — a plain arithmetic loop included — runs 1.2 to 1.6 times
// slower, so ten raw runs of one workload spread 10-20 % and two sets of runs
// an hour apart can differ by more than any bound. The slowdown is common to
// all code, so every program run is preceded by a fixed reference kernel, and
// the run's host times are divided by how slow the reference ran (its median
// over the run, relative to a fixed nominal time). Measured on 10-second
// windows this takes the quartile spread of every workload from 7-19 % to
// 3-8 %. The reference is bench code: a change that claims a gain may not
// touch it, so parent and change are divided alike.

// Nominal times of the two reference kernels: their medians on the box the
// first baseline was recorded on. They only fix the unit — a speed factor of
// 1 means "as fast as that box on that day".
const (
	calibSpinNominal  = 0.66e6 // ns
	calibChatsNominal = 1.93e6 // ns
)

// calibrator runs the reference kernel and keeps its samples.
type calibrator struct {
	// 32 KB each, so the kernels stay in the cache: a walk that misses it
	// follows the garbage collector and the neighbours' memory traffic
	// (spreading 15-30 % by itself), not the speed the program runs at.
	smalls  [4][]uint64
	factors []float64 // one per sample: measured / nominal, the two kernels averaged
	spent   time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.smalls {
		c.smalls[i] = make([]uint64, 1<<12)
	}
	return c
}

// walk makes n dependent pseudo-random read-modify-writes over arr.
func walk(arr []uint64, n int) uint64 {
	idx, mask := uint64(1), uint64(len(arr)-1)
	var s uint64
	for i := 0; i < n; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		j := (idx >> 33) & mask
		arr[j] += idx
		s += arr[(j*7)&mask]
	}
	return s
}

// sample runs the reference once (~2.6 ms): one goroutine walking memory —
// what the access path and the detector do — then four goroutine pairs
// exchanging values over channels — what the protocol threads, the scheduler
// and the sync layers do.
func (c *calibrator) sample() {
	if c == nil {
		return // set-up's warm-up iteration: nothing is being measured
	}
	start := time.Now()
	sink += walk(c.smalls[0], 400_000)
	spun := time.Since(start)

	t1 := time.Now()
	var wg sync.WaitGroup
	for _, small := range c.smalls {
		ping, pong := make(chan uint64), make(chan uint64)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ping <- walk(small, 50)
				<-pong
			}
			close(ping)
		}()
		go func() {
			defer wg.Done()
			for v := range ping {
				pong <- v + 1
			}
		}()
	}
	wg.Wait()
	chatted := time.Since(t1)

	c.factors = append(c.factors,
		(float64(spun.Nanoseconds())/calibSpinNominal+float64(chatted.Nanoseconds())/calibChatsNominal)/2)
	c.spent += time.Since(start)
}

// factor is how slow the box ran while c sampled it: the median sample.
func (c *calibrator) factor() float64 { return median(c.factors) }

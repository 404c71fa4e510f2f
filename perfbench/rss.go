package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler reads the process's resident set every rssEvery while a
// timed window runs and keeps the highest reading since the last cut.
// The caller cuts after each fixed unit of work (a round of a mix, a
// block of serve rounds), and the median of those per-unit peaks is the
// peak_rss_mb metric. Peaks are indexed by work done, not by time, so a
// faster program is compared at the same state as a slower one. The
// process-lifetime maximum, kept in the detail line, is one extreme
// reading, set by where garbage collection happened to fall.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	peak  float64   // MiB, highest reading since the last cut
	peaks []float64 // MiB, one per cut
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.read()
		}
	}
}

// read takes one reading into the current unit's peak.
func (s *rssSampler) read() {
	mib, ok := residentMiB()
	if !ok {
		return
	}
	s.mu.Lock()
	if mib > s.peak {
		s.peak = mib
	}
	s.mu.Unlock()
}

// cut ends a unit of work: it takes one more reading, so even a unit
// shorter than rssEvery has one, and starts the next unit.
func (s *rssSampler) cut() {
	s.read()
	s.mu.Lock()
	if s.peak > 0 {
		s.peaks = append(s.peaks, s.peak)
	}
	s.peak = 0
	s.mu.Unlock()
}

// finish stops the sampler and returns the median per-unit peak, or the
// process's maximum resident set where /proc/self/statm cannot be read.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return peakRSSMiB()
	}
	return median(s.peaks)
}

// residentMiB reads the current resident set from /proc/self/statm.
func residentMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

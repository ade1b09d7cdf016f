//go:build !linux

package main

import "time"

// preciseSleeper falls back to time.Sleep where timerfd is unavailable.
type preciseSleeper struct{}

func newPreciseSleeper() *preciseSleeper { return &preciseSleeper{} }

func (*preciseSleeper) sleep(d time.Duration) { time.Sleep(d) }

func (*preciseSleeper) close() {}

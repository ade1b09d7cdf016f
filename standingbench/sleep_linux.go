package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseSleeper sleeps on a timerfd read through the Go netpoller: the
// sleeping goroutine gives up its P like time.Sleep does, but wakes within
// microseconds of the deadline. time.Sleep rounds short sleeps up to the
// netpoller's millisecond timeout, which at a few hundred arrivals per
// second would dominate the sub-millisecond latencies measured from each
// scheduled send time.
type preciseSleeper struct {
	f *os.File // nil: fall back to time.Sleep
}

func newPreciseSleeper() *preciseSleeper {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &preciseSleeper{}
	}
	return &preciseSleeper{f: os.NewFile(fd, "timerfd")}
}

func (s *preciseSleeper) sleep(d time.Duration) {
	if s.f == nil || d <= 0 {
		time.Sleep(d)
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	var buf [8]byte
	if errno != 0 {
		time.Sleep(d)
	} else if _, err := s.f.Read(buf[:]); err != nil {
		time.Sleep(d)
	}
}

func (s *preciseSleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}

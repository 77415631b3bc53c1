package vkernel

import (
	"encoding/binary"
	"sort"
	"sync"

	"remon/internal/mem"
	"remon/internal/model"
)

// Epoll event bits (Linux values).
const (
	EpollIn  = 0x001
	EpollOut = 0x004
	EpollErr = 0x008
	EpollHup = 0x010
)

// Epoll ctl ops.
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
	EpollCtlMod = 3
)

// EpollEventSize is the wire size of one epoll_event: events(4) pad(4)
// data(8).
const EpollEventSize = 16

// epollInstance is one epoll descriptor's interest list. The user data
// value is the pointer-sized cookie the application registered — the value
// that differs across diversified replicas and forces IP-MON's shadow
// FD<->data mapping (§3.9).
type epollInstance struct {
	mu       sync.Mutex
	interest map[int]epollItem // fd -> item
}

type epollItem struct {
	events uint32
	data   uint64
}

func (k *Kernel) sysEpollCreate(t *Thread, c *Call) Result {
	ep := &epollInstance{interest: map[int]epollItem{}}
	of := &OpenFile{Kind: FDEpoll, epoll: ep, Path: "anon_inode:[eventpoll]"}
	fd, e := t.Proc.fds.Alloc(of)
	if e != OK {
		return Result{Errno: e}
	}
	return Result{Val: uint64(fd)}
}

func (k *Kernel) sysEpollCtl(t *Thread, c *Call) Result {
	epf, e := t.Proc.fds.Get(int(c.Arg(0)))
	if e != OK {
		return Result{Errno: e}
	}
	if epf.Kind != FDEpoll {
		return Result{Errno: EINVAL}
	}
	targetFD := int(c.Arg(2))
	if _, e := t.Proc.fds.Get(targetFD); e != OK {
		return Result{Errno: e}
	}
	ep := epf.epoll
	ep.mu.Lock()
	defer ep.mu.Unlock()
	switch int(c.Arg(1)) {
	case EpollCtlAdd, EpollCtlMod:
		raw, err := t.Proc.Mem.ReadBytes(mem.Addr(c.Arg(3)), EpollEventSize)
		if err != nil {
			return Result{Errno: EFAULT}
		}
		item := epollItem{
			events: binary.LittleEndian.Uint32(raw[0:]),
			data:   binary.LittleEndian.Uint64(raw[8:]),
		}
		if int(c.Arg(1)) == EpollCtlAdd {
			if _, exists := ep.interest[targetFD]; exists {
				return Result{Errno: EEXIST}
			}
		} else if _, exists := ep.interest[targetFD]; !exists {
			return Result{Errno: ENOENT}
		}
		ep.interest[targetFD] = item
	case EpollCtlDel:
		if _, exists := ep.interest[targetFD]; !exists {
			return Result{Errno: ENOENT}
		}
		delete(ep.interest, targetFD)
	default:
		return Result{Errno: EINVAL}
	}
	return Result{}
}

// readyEvent is one ready descriptor found by an epoll scan.
type readyEvent struct {
	fd     int
	events uint32
	data   uint64
	arrive model.Duration
	hasArr bool
}

// scan collects ready descriptors.
func (ep *epollInstance) scan(p *Process) []readyEvent {
	ep.mu.Lock()
	fds := make([]int, 0, len(ep.interest))
	for fd := range ep.interest {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	items := make([]epollItem, len(fds))
	for i, fd := range fds {
		items[i] = ep.interest[fd]
	}
	ep.mu.Unlock()

	var out []readyEvent
	for i, fd := range fds {
		f, e := p.fds.Get(fd)
		if e != OK {
			continue // closed but not EPOLL_CTL_DELed; skip
		}
		var ev uint32
		if items[i].events&EpollIn != 0 && f.readableNow() {
			ev |= EpollIn
		}
		if items[i].events&EpollOut != 0 && f.writableNow() {
			ev |= EpollOut
		}
		if ev != 0 {
			re := readyEvent{fd: fd, events: ev, data: items[i].data}
			re.arrive, re.hasArr = f.arrivalHint()
			out = append(out, re)
		}
	}
	return out
}

func (k *Kernel) sysEpollWait(t *Thread, c *Call) Result {
	epf, e := t.Proc.fds.Get(int(c.Arg(0)))
	if e != OK {
		return Result{Errno: e}
	}
	if epf.Kind != FDEpoll {
		return Result{Errno: EINVAL}
	}
	maxEvents := int(c.Arg(2))
	if maxEvents <= 0 {
		return Result{Errno: EINVAL}
	}
	timeout := int64(int32(c.Arg(3)))

	ready := k.waitReady(t, timeout, func() []readyEvent { return epf.epoll.scan(t.Proc) })
	if len(ready) > maxEvents {
		ready = ready[:maxEvents]
	}
	addr := mem.Addr(c.Arg(1))
	for i, ev := range ready {
		raw := make([]byte, EpollEventSize)
		binary.LittleEndian.PutUint32(raw[0:], ev.events)
		binary.LittleEndian.PutUint64(raw[8:], ev.data)
		if err := t.Proc.Mem.Write(addr+mem.Addr(i*EpollEventSize), raw); err != nil {
			return Result{Errno: EFAULT}
		}
	}
	return Result{Val: uint64(len(ready))}
}

// waitReady runs the generic readiness loop shared by poll/select/epoll:
// scan; if nothing ready and timeout allows, sleep on the hub and rescan.
// The waiting thread's virtual clock advances to the earliest arrival among
// the events that woke it, so network latency is visible to the waiter.
//
// Timeout semantics: 0 = non-blocking scan, anything else = block until an
// event arrives. Finite positive timeouts block indefinitely too — the
// simulation has no spontaneous wall-clock progress, so a timed wait with
// no future event would never fire anyway; blocking keeps runs
// deterministic.
func (k *Kernel) waitReady(t *Thread, timeout int64, scan func() []readyEvent) []readyEvent {
	for {
		ready := scan()
		if len(ready) > 0 {
			minArr := model.Duration(-1)
			for _, ev := range ready {
				if ev.hasArr && (minArr < 0 || ev.arrive < minArr) {
					minArr = ev.arrive
				}
			}
			if minArr >= 0 {
				t.Clock.SyncTo(minArr)
			}
			return ready
		}
		if timeout == 0 {
			return nil
		}
		// Read the generation before the liveness check: exit marks the
		// thread and then notifies the hub, so a crash landing after the
		// check moves the generation and WaitChange returns.
		gen := k.Hub.Gen()
		if t.Exited() {
			return nil
		}
		if again := scan(); len(again) > 0 {
			continue
		}
		k.Hub.WaitChange(gen, t.Clock.Now())
	}
}

// pollfd layout: fd(4) events(2) revents(2), 8 bytes.
const pollFDSize = 8

// poll event bits.
const (
	PollIn  = 0x001
	PollOut = 0x004
	PollErr = 0x008
	PollHup = 0x010
)

func (k *Kernel) sysPoll(t *Thread, c *Call) Result {
	// select/pselect are routed through the same handler with a pollfd
	// array built by libc.
	nfds := int(c.Arg(1))
	if nfds < 0 || nfds > 1024 {
		return Result{Errno: EINVAL}
	}
	addr := mem.Addr(c.Arg(0))
	raw, err := t.Proc.Mem.ReadBytes(addr, nfds*pollFDSize)
	if err != nil {
		return Result{Errno: EFAULT}
	}
	type pfd struct {
		fd     int
		events uint16
	}
	pfds := make([]pfd, nfds)
	for i := range pfds {
		pfds[i].fd = int(int32(binary.LittleEndian.Uint32(raw[i*pollFDSize:])))
		pfds[i].events = binary.LittleEndian.Uint16(raw[i*pollFDSize+4:])
	}
	timeout := int64(int32(c.Arg(2)))

	scan := func() []readyEvent {
		var out []readyEvent
		for i, p := range pfds {
			if p.fd < 0 {
				continue
			}
			f, e := t.Proc.fds.Get(p.fd)
			if e != OK {
				out = append(out, readyEvent{fd: i, events: PollErr})
				continue
			}
			var ev uint32
			if p.events&PollIn != 0 && f.readableNow() {
				ev |= PollIn
			}
			if p.events&PollOut != 0 && f.writableNow() {
				ev |= PollOut
			}
			if ev != 0 {
				re := readyEvent{fd: i, events: ev}
				re.arrive, re.hasArr = f.arrivalHint()
				out = append(out, re)
			}
		}
		return out
	}

	ready := k.waitReady(t, timeout, scan)
	for _, ev := range ready {
		binary.LittleEndian.PutUint16(raw[ev.fd*pollFDSize+6:], uint16(ev.events))
	}
	if err := t.Proc.Mem.Write(addr, raw); err != nil {
		return Result{Errno: EFAULT}
	}
	return Result{Val: uint64(len(ready))}
}

func (k *Kernel) sysTimerfd(t *Thread, c *Call) Result {
	switch c.Num {
	case SysTimerfdCreate:
		of := &OpenFile{Kind: FDTimer, Path: "anon_inode:[timerfd]"}
		fd, e := t.Proc.fds.Alloc(of)
		if e != OK {
			return Result{Errno: e}
		}
		return Result{Val: uint64(fd)}
	case SysTimerfdSettime:
		f, e := t.Proc.fds.Get(int(c.Arg(0)))
		if e != OK {
			return Result{Errno: e}
		}
		if f.Kind != FDTimer {
			return Result{Errno: EINVAL}
		}
		f.mu.Lock()
		f.timerArm = c.Arg(2) != 0
		f.mu.Unlock()
		k.Hub.Notify()
		return Result{}
	case SysTimerfdGettime:
		f, e := t.Proc.fds.Get(int(c.Arg(0)))
		if e != OK {
			return Result{Errno: e}
		}
		if f.Kind != FDTimer {
			return Result{Errno: EINVAL}
		}
		var buf [8]byte
		f.mu.Lock()
		if f.timerArm {
			buf[0] = 1
		}
		f.mu.Unlock()
		if err := t.Proc.Mem.Write(mem.Addr(c.Arg(1)), buf[:]); err != nil {
			return Result{Errno: EFAULT}
		}
		return Result{}
	}
	return Result{Errno: EINVAL}
}

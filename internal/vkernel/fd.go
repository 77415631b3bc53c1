package vkernel

import (
	"sync"

	"remon/internal/model"
	"remon/internal/vfs"
	"remon/internal/vnet"
)

// FDKind classifies descriptors. GHUMVEE tracks one byte of metadata per
// descriptor in the IP-MON file map (§3.6); this enum is that byte's type
// portion.
type FDKind uint8

// Descriptor kinds.
const (
	FDNone FDKind = iota
	FDRegular
	FDDir
	FDPipeRead
	FDPipeWrite
	FDSocket
	FDListener
	FDEpoll
	FDSpecial
	FDTimer
)

func (k FDKind) String() string {
	switch k {
	case FDNone:
		return "none"
	case FDRegular:
		return "regular"
	case FDDir:
		return "dir"
	case FDPipeRead:
		return "pipe-r"
	case FDPipeWrite:
		return "pipe-w"
	case FDSocket:
		return "socket"
	case FDListener:
		return "listener"
	case FDEpoll:
		return "epoll"
	case FDSpecial:
		return "special"
	case FDTimer:
		return "timer"
	}
	return "?"
}

// IsSocket reports whether the kind is a network descriptor (the
// SOCKET_RO/SOCKET_RW levels of Table 1 key on this).
func (k FDKind) IsSocket() bool { return k == FDSocket || k == FDListener }

// OpenFile is one open descriptor's backing object. A single OpenFile may
// be shared by several fd numbers (dup).
type OpenFile struct {
	Kind FDKind
	Path string

	mu        sync.Mutex
	inode     *vfs.Inode
	pos       int64
	pipe      *vfs.Pipe
	pipeStamp *pipeStamp
	conn      *vnet.Conn
	listener  *vnet.Listener
	epoll     *epollInstance
	special   []byte // generated content snapshot (special files)
	nonblock  bool
	refs      int
	timerArm  bool
}

// pipeStamp carries the writer-side virtual timestamp for a pipe so that a
// blocking reader can sync its clock to the producing thread.
type pipeStamp struct {
	mu   sync.Mutex
	last model.Duration
}

func (s *pipeStamp) stamp(t model.Duration) {
	s.mu.Lock()
	if t > s.last {
		s.last = t
	}
	s.mu.Unlock()
}

func (s *pipeStamp) get() model.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// SetNonblock flips O_NONBLOCK.
func (f *OpenFile) SetNonblock(v bool) {
	f.mu.Lock()
	f.nonblock = v
	f.mu.Unlock()
}

// Nonblock reports O_NONBLOCK.
func (f *OpenFile) Nonblock() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nonblock
}

// readableNow reports whether a read on f would not block.
func (f *OpenFile) readableNow() bool {
	switch f.Kind {
	case FDRegular, FDDir, FDSpecial:
		return true
	case FDPipeRead:
		return f.pipe.ReadableNow()
	case FDSocket:
		return f.conn != nil && f.conn.ReadableNow()
	case FDListener:
		return f.listener.PendingNow()
	case FDTimer:
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.timerArm
	}
	return false
}

// writableNow reports whether a write on f would not block.
func (f *OpenFile) writableNow() bool {
	switch f.Kind {
	case FDRegular, FDSpecial:
		return true
	case FDPipeWrite:
		return f.pipe.WritableNow()
	case FDSocket:
		return f.conn != nil && f.conn.WritableNow()
	}
	return false
}

// FDTable maps descriptor numbers to open files. Allocation is
// lowest-free, which keeps descriptor numbers identical across replicas
// executing the same syscall sequence — the property that lets monitors
// compare fd arguments by value.
type FDTable struct {
	mu    sync.Mutex
	files []*OpenFile
}

const maxFDs = 1024

func newFDTable() *FDTable {
	return &FDTable{files: make([]*OpenFile, 0, 64)}
}

// Alloc installs f at the lowest free descriptor.
func (ft *FDTable) Alloc(f *OpenFile) (int, Errno) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
	for i, existing := range ft.files {
		if existing == nil {
			ft.files[i] = f
			return i, OK
		}
	}
	if len(ft.files) >= maxFDs {
		return -1, EMFILE
	}
	ft.files = append(ft.files, f)
	return len(ft.files) - 1, OK
}

// AllocAt installs f at exactly fd (dup2), closing any previous occupant.
func (ft *FDTable) AllocAt(fd int, f *OpenFile) Errno {
	if fd < 0 || fd >= maxFDs {
		return EBADF
	}
	ft.mu.Lock()
	for len(ft.files) <= fd {
		ft.files = append(ft.files, nil)
	}
	old := ft.files[fd]
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
	ft.files[fd] = f
	ft.mu.Unlock()
	if old != nil {
		old.release()
	}
	return OK
}

// Get resolves fd.
func (ft *FDTable) Get(fd int) (*OpenFile, Errno) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if fd < 0 || fd >= len(ft.files) || ft.files[fd] == nil {
		return nil, EBADF
	}
	return ft.files[fd], OK
}

// Close releases fd.
func (ft *FDTable) Close(fd int) Errno {
	ft.mu.Lock()
	if fd < 0 || fd >= len(ft.files) || ft.files[fd] == nil {
		ft.mu.Unlock()
		return EBADF
	}
	f := ft.files[fd]
	ft.files[fd] = nil
	ft.mu.Unlock()
	f.release()
	return OK
}

// release drops one reference, tearing the object down at zero.
func (f *OpenFile) release() {
	f.mu.Lock()
	f.refs--
	gone := f.refs <= 0
	f.mu.Unlock()
	if !gone {
		return
	}
	switch f.Kind {
	case FDPipeRead:
		if f.pipe != nil {
			f.pipe.CloseRead()
		}
	case FDPipeWrite:
		if f.pipe != nil {
			f.pipe.CloseWrite()
		}
	case FDSocket:
		if f.conn != nil { // unconnected sockets have no endpoint yet
			f.conn.Close()
		}
	case FDListener:
		if f.listener != nil {
			f.listener.Close()
		}
	}
}

// Package fdmap implements the IP-MON file map (§3.6) and the epoll
// shadow mapping (§3.9).
//
// The file map is one byte of metadata per file descriptor, kept in a
// page-sized shared memory segment. GHUMVEE — which arbitrates all
// FD-creating/modifying/destroying calls — is the only writer; replicas
// map the page read-only so IP-MON can consult it when evaluating
// conditional relaxation policies and when predicting whether a call may
// block.
package fdmap

import (
	"sync"

	"remon/internal/mem"
	"remon/internal/policy"
	"remon/internal/vkernel"
)

// Byte layout of one file-map entry.
const (
	typeMask     = 0x07
	flagNonblock = 0x40
	flagOpen     = 0x80
)

// FD types stored in the map's low bits.
const (
	TypeNone uint8 = iota
	TypeRegular
	TypePipe
	TypeSocket
	TypePollFD
	TypeSpecial // files whose reads GHUMVEE must filter (/proc/<pid>/maps)
	TypeDir
	TypeTimer
)

// MapSize is one page: 4096 descriptors, one byte each.
const MapSize = mem.PageSize

// FileMap is the shared, GHUMVEE-maintained descriptor metadata table.
type FileMap struct {
	mu  sync.RWMutex
	seg *mem.SharedSegment
	// cache avoids a segment read on the monitor's own lookups.
	local [MapSize]uint8
}

// New creates a file map backed by the given shared segment (which the
// monitor maps into every replica read-only).
func New(seg *mem.SharedSegment) *FileMap {
	return &FileMap{seg: seg}
}

// Set records descriptor fd's type and non-blocking flag.
func (m *FileMap) Set(fd int, typ uint8, nonblock bool) {
	if fd < 0 || fd >= MapSize {
		return
	}
	b := (typ & typeMask) | flagOpen
	if nonblock {
		b |= flagNonblock
	}
	m.mu.Lock()
	m.local[fd] = b
	if m.seg != nil {
		_ = m.seg.WriteAt([]byte{b}, uint64(fd))
	}
	m.mu.Unlock()
}

// Clear marks fd closed.
func (m *FileMap) Clear(fd int) {
	if fd < 0 || fd >= MapSize {
		return
	}
	m.mu.Lock()
	m.local[fd] = 0
	if m.seg != nil {
		_ = m.seg.WriteAt([]byte{0}, uint64(fd))
	}
	m.mu.Unlock()
}

// Lookup reads fd's metadata.
func (m *FileMap) Lookup(fd int) (typ uint8, nonblock, open bool) {
	if fd < 0 || fd >= MapSize {
		return TypeNone, false, false
	}
	m.mu.RLock()
	b := m.local[fd]
	m.mu.RUnlock()
	return b & typeMask, b&flagNonblock != 0, b&flagOpen != 0
}

// Class maps fd metadata to the policy-level descriptor class.
func (m *FileMap) Class(fd int) policy.FDClass {
	typ, _, open := m.Lookup(fd)
	if !open {
		return policy.FDUnknown
	}
	switch typ {
	case TypeSocket:
		return policy.FDSock
	case TypePollFD:
		return policy.FDPollFD
	case TypeSpecial:
		return policy.FDUnknown // special files force monitoring (§3.1)
	default:
		return policy.FDNonSocket
	}
}

// MayBlock predicts whether an operation on fd can block: non-blocking
// descriptors always return immediately (§3.6); regular files never block
// in the simulation; pipes, sockets and epoll instances may.
func (m *FileMap) MayBlock(fd int) bool {
	typ, nonblock, open := m.Lookup(fd)
	if !open || nonblock {
		return false
	}
	switch typ {
	case TypePipe, TypeSocket, TypePollFD, TypeTimer:
		return true
	}
	return false
}

// TypeFromKind converts a kernel FD kind to a file-map type byte.
func TypeFromKind(k vkernel.FDKind, special bool) uint8 {
	if special {
		return TypeSpecial
	}
	switch k {
	case vkernel.FDRegular:
		return TypeRegular
	case vkernel.FDDir:
		return TypeDir
	case vkernel.FDPipeRead, vkernel.FDPipeWrite:
		return TypePipe
	case vkernel.FDSocket, vkernel.FDListener:
		return TypeSocket
	case vkernel.FDEpoll:
		return TypePollFD
	case vkernel.FDSpecial:
		return TypeSpecial
	case vkernel.FDTimer:
		return TypeTimer
	}
	return TypeNone
}

// EpollShadow is the per-replica fd <-> epoll cookie mapping (§3.9).
// Diversified replicas register different pointer values for the same
// logical descriptor; replicating the master's cookies verbatim would hand
// slaves dangling master pointers. The shadow map lets the monitor store
// fds in flight and translate back to each replica's own cookie on
// delivery.
type EpollShadow struct {
	mu sync.RWMutex
	// byReplica[r][fd] = cookie registered by replica r for fd.
	byReplica []map[int]uint64
}

// NewEpollShadow creates a shadow map for n replicas.
func NewEpollShadow(n int) *EpollShadow {
	s := &EpollShadow{byReplica: make([]map[int]uint64, n)}
	for i := range s.byReplica {
		s.byReplica[i] = map[int]uint64{}
	}
	return s
}

// Register records replica r's cookie for fd (EPOLL_CTL_ADD/MOD).
func (s *EpollShadow) Register(r, fd int, cookie uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r < 0 || r >= len(s.byReplica) {
		return
	}
	s.byReplica[r][fd] = cookie
}

// Unregister removes fd (EPOLL_CTL_DEL, close).
func (s *EpollShadow) Unregister(r, fd int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r < 0 || r >= len(s.byReplica) {
		return
	}
	delete(s.byReplica[r], fd)
}

// FDForCookie finds the fd whose cookie (in replica r) equals cookie. The
// master's returned events are translated fd-ward with this.
func (s *EpollShadow) FDForCookie(r int, cookie uint64) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r < 0 || r >= len(s.byReplica) {
		return 0, false
	}
	for fd, ck := range s.byReplica[r] {
		if ck == cookie {
			return fd, true
		}
	}
	return 0, false
}

// CookieForFD reports replica r's cookie for fd.
func (s *EpollShadow) CookieForFD(r, fd int) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r < 0 || r >= len(s.byReplica) {
		return 0, false
	}
	ck, ok := s.byReplica[r][fd]
	return ck, ok
}

package vfs

import (
	"errors"
	"sync"

	"remon/internal/wait"
)

// Pipe errors.
var (
	ErrPipeClosed = errors.New("vfs: broken pipe") // EPIPE
	ErrWouldBlock = errors.New("vfs: would block") // EAGAIN
)

// Pipe is a bounded byte FIFO with blocking and non-blocking operation,
// used for pipe(2) and as the transport inside socketpair-style streams.
// Blocking waits park on one wait queue per direction; virtual-time
// accounting for the wait is done by the kernel layer, which knows the
// waiting thread's clock.
type Pipe struct {
	mu       sync.Mutex
	rdWait   wait.Queue
	wrWait   wait.Queue
	buf      []byte
	capacity int
	rClosed  bool
	wClosed  bool
}

// DefaultPipeCapacity matches the Linux default pipe buffer (64 KiB).
const DefaultPipeCapacity = 64 * 1024

// NewPipe creates a pipe with the given capacity (DefaultPipeCapacity if
// capacity <= 0).
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		capacity = DefaultPipeCapacity
	}
	return &Pipe{capacity: capacity}
}

// Len reports the number of buffered bytes.
func (p *Pipe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// ReadableNow reports whether a read would return without blocking
// (data available, or writer closed so EOF is immediate).
func (p *Pipe) ReadableNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf) > 0 || p.wClosed
}

// WritableNow reports whether a write of one byte would not block.
func (p *Pipe) WritableNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf) < p.capacity || p.rClosed
}

// Read reads up to len(b) bytes. If block is false and no data is
// available it returns ErrWouldBlock. Returns n==0, err==nil at EOF
// (writer closed, buffer drained).
func (p *Pipe) Read(b []byte, block bool) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		if p.wClosed {
			return 0, nil // EOF
		}
		if p.rClosed {
			return 0, ErrPipeClosed
		}
		if !block {
			return 0, ErrWouldBlock
		}
		p.rdWait.Park(&p.mu, "vfs.pipe.read", 0)
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	p.wrWait.WakeAll(0)
	return n, nil
}

// Write writes b. If block is false and the buffer is full it returns
// ErrWouldBlock; a partial non-blocking write can occur. Writing to a pipe
// whose read end is closed returns ErrPipeClosed (EPIPE/SIGPIPE at the
// kernel layer).
func (p *Pipe) Write(b []byte, block bool) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for written < len(b) {
		if p.rClosed {
			if written > 0 {
				return written, nil
			}
			return 0, ErrPipeClosed
		}
		if p.wClosed {
			return written, ErrPipeClosed
		}
		space := p.capacity - len(p.buf)
		if space == 0 {
			if !block {
				if written > 0 {
					return written, nil
				}
				return 0, ErrWouldBlock
			}
			p.wrWait.Park(&p.mu, "vfs.pipe.write", 0)
			continue
		}
		chunk := len(b) - written
		if chunk > space {
			chunk = space
		}
		p.buf = append(p.buf, b[written:written+chunk]...)
		written += chunk
		p.rdWait.WakeAll(0)
	}
	return written, nil
}

// CloseRead closes the read end; pending and future writes fail.
func (p *Pipe) CloseRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rClosed = true
	p.rdWait.WakeAll(0)
	p.wrWait.WakeAll(0)
}

// CloseWrite closes the write end; readers drain then see EOF.
func (p *Pipe) CloseWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wClosed = true
	p.rdWait.WakeAll(0)
	p.wrWait.WakeAll(0)
}

// Closed reports whether both ends are closed.
func (p *Pipe) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rClosed && p.wClosed
}

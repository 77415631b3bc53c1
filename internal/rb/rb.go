// Package rb implements IP-MON's replication buffer (§3.2): a linear
// buffer in shared memory through which the master replica publishes
// system call arguments, results and metadata, and from which slave
// replicas consume them.
//
// Faithful properties:
//
//   - The buffer lives in a System V shared memory segment mapped at a
//     different randomised address in each replica; only the segment-
//     relative encoding lives here, the mapping addresses stay inside the
//     monitors (the basis of the RB-hiding security argument, §3.1/§4).
//   - It is linear, not circular: on overflow the master signals an
//     arbiter (GHUMVEE) which waits for all replicas to synchronise and
//     resets the buffer, avoiding read-write sharing on head/tail indices
//     (§3.2). Each replica thread reads and writes only its own position.
//   - Every syscall invocation gets its own entry with its own condition
//     variable (a futex word inside the entry), so slaves progressing at
//     different paces never contend on a shared condvar, and condvars are
//     never reused or reset (§3.7).
//   - The master skips the FUTEX_WAKE when no slave is waiting (§3.7).
//
// One protocol serves every lag window (DESIGN.md §9). At MaxLag 0 the
// master publishes each entry at Reserve, as the paper describes; at
// MaxLag N it may also stage batchable entries and publish them in
// group commits, running at most N entries ahead of the slowest slave.
// Overflow goes to the arbiter at every window.
//
// The buffer is partitioned per logical thread so that multi-threaded
// replicas replicate independently, mirroring "each replica thread only
// reads and writes its own RB position".
//
// Data-path discipline (DESIGN.md §2–§3): the master stages each 112-byte
// entry header in a per-Writer scratch buffer and publishes header and
// payload with plain copies through aliased segment views, made visible by
// a single atomic release-store of the partition's writtenSeq (and, for
// results, of the entry's status word). Slaves poll those words with
// atomic acquire-loads and then read headers and payloads through aliased
// views without copying. No segment lock is taken anywhere on this path.
package rb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/vkernel"
	"remon/internal/wait"
)

// Entry flags.
const (
	// FlagBlocking marks a call the master expects to block; slaves use
	// the futex path instead of spinning (§3.7).
	FlagBlocking = 1 << 0
	// FlagMasterCall marks a call only the master executed.
	FlagMasterCall = 1 << 1
	// FlagForwarded marks a call the master ended up forwarding to
	// GHUMVEE (§3.3 metadata).
	FlagForwarded = 1 << 2
	// FlagBatched marks an entry published by a writer-side group commit
	// (DESIGN.md §9): its results are normally already complete when the
	// entry becomes visible, so slaves never spin or park on its status
	// word — except for the one entry a hard barrier may publish while
	// still in flight, whose Complete wakes the status futex like an
	// immediate entry's.
	FlagBatched = 1 << 3
)

// Layout constants.
const (
	// globalHeaderSize holds buffer-wide state: the signals-pending flag
	// GHUMVEE raises (§3.8) at offset 0.
	globalHeaderSize = 64
	// partHeaderSize per partition: reserved(4) writtenSeq(4)
	// generation(4) reserved(4) consumed[12]x4.
	partHeaderSize = 64
	// entryHeaderSize: see field offsets below.
	entryHeaderSize = 112

	offSize      = 0
	offNr        = 4
	offSeq       = 8
	offPolicyVer = 12 // policy snapshot version pinned after this entry
	offFlags     = 16
	offStatus    = 20 // futex word: 0 = results pending, 1 = ready
	offRetVal    = 24
	offRetErrno  = 32
	offNArgs     = 36
	offArgsPub   = 40 // virtual time args were published
	offResPub    = 48 // virtual time results were published
	offArgs      = 56 // 6 * 8 bytes
	offInLen     = 104
	offOutLen    = 108
	offPayload   = entryHeaderSize

	maxReplicas = 12
	// statusSpinLimit bounds the spin-read loop before falling back to the
	// futex (§3.7's two waiting strategies).
	statusSpinLimit = 200

	// DefaultGroupCommit is the writer's group-commit size under a lag
	// window: up to this many completed entries are staged before one
	// writtenSeq release-store publishes the whole run (clamped to
	// MaxLag).
	DefaultGroupCommit = 8
	// maxDrainRun bounds how many entries a reader claims per acquire-load
	// (and therefore how long its consumed-counter store can be
	// deferred).
	maxDrainRun = 64
)

var le = binary.LittleEndian

// Errors.
var (
	// ErrTooBig: the entry cannot fit even an empty buffer; the caller
	// must forward the call to GHUMVEE (§3.3, CALCSIZE overflow rule).
	ErrTooBig = errors.New("rb: entry exceeds buffer capacity")
	// ErrDiverged: a slave's arguments do not match the master's record.
	ErrDiverged = errors.New("rb: argument mismatch between master and slave")
	// ErrCorrupt: structural invariants violated (attack or bug).
	ErrCorrupt = errors.New("rb: corrupt entry")
)

// Arbiter resets a full partition once all replicas have drained it. In
// ReMon this is GHUMVEE (§3.2: "Involving GHUMVEE as an arbiter avoids
// costly read-write sharing on RB variables").
type Arbiter interface {
	ResetPartition(b *Buffer, part int)
}

// Stats counts replication-buffer activity. Wakes and WakeChecks move at
// every lag window; the group-commit and lag counters stay 0 at MaxLag
// 0, where nothing is batched. All counters are host-side figures —
// they never touch virtual time.
type Stats struct {
	// Wakes is the number of FUTEX_WAKE syscalls actually issued by
	// writers; WakeChecks counts wake-suppression probes (§3.7).
	Wakes      uint64
	WakeChecks uint64
	// Flushes counts group-commit publications (one writtenSeq
	// release-store each); Batched counts entries staged through them.
	Flushes uint64
	Batched uint64
	// LagWaits counts the times a writer hit the MaxLag budget and had to
	// wait for slave consumption (resuming at the MaxLag/2 low-water
	// mark). Overflow waits belong to the arbiter and are not counted.
	LagWaits uint64

	// Lag distribution. CurLag is the live
	// distance, in entries, between the most-ahead partition's published
	// sequence and its slowest slave's acknowledged consumption — sampled
	// at snapshot time, wrap-safe, and only while a lag window is open
	// (0 at MaxLag 0, where no reader uses it). HighWaterLag is the
	// largest lag any writer observed at a group-commit publication.
	CurLag       uint64
	HighWaterLag uint64
}

// Emit reports the snapshot as (metric, value) pairs under the
// telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry.
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("wakes_total", s.Wakes)
	emit("wake_checks_total", s.WakeChecks)
	emit("flushes_total", s.Flushes)
	emit("batched_total", s.Batched)
	emit("lag_waits_total", s.LagWaits)
	emit("cur_lag", s.CurLag)
	emit("high_water_lag", s.HighWaterLag)
}

// Buffer is the shared replication buffer.
type Buffer struct {
	seg       *mem.SharedSegment
	nReplicas int
	nParts    int
	partSize  uint64
	arbiter   Arbiter
	// alwaysWake disables §3.7's wake suppression (ablation knob): the
	// master issues FUTEX_WAKE even when no slave waits.
	alwaysWake bool
	// maxLag is the live lag window (DESIGN.md §9): how many entries a
	// writer may run ahead of its slowest slave. 0 publishes every entry
	// at Reserve with no budget. The window and the counters below are
	// monitor-side Go state — nothing here extends the shared segment's
	// attack surface.
	maxLag atomic.Int32
	// waits are the per-partition writer-side waits on slave
	// consumption: the lag budget and the arbiter's drain.
	waits []partWait
	// wakeCtrs feed Stats (host-side only): one padded slot per
	// partition, so each single-owner writer bumps its own cache line
	// instead of all writers contending on one buffer-global RMW per call.
	wakeCtrs []wakeCtr

	flushes  atomic.Uint64
	batched  atomic.Uint64
	lagWaits atomic.Uint64
	// highWater is the largest publication-time lag any writer has
	// observed (monotone CAS max).
	highWater atomic.Uint64
}

// wakeCtr is one partition writer's wake accounting, padded to a cache
// line.
type wakeCtr struct {
	checks atomic.Uint64
	wakes  atomic.Uint64
	_      [48]byte
}

// SetAlwaysWake toggles the wake-suppression ablation.
func (b *Buffer) SetAlwaysWake(v bool) { b.alwaysWake = v }

// MaxLag reports the live lag window (0 = every entry published at
// Reserve).
func (b *Buffer) MaxLag() int { return int(b.maxLag.Load()) }

// SetMaxLag sets the lag window; it is safe while traffic is live. Any
// n >= 0 applies at the writers' next Reserve (a negative n means 0).
// Entries staged under a wider window are published by the next group
// commit or barrier, whichever comes first.
func (b *Buffer) SetMaxLag(n int) {
	if n < 0 {
		n = 0
	}
	b.maxLag.Store(int32(n))
}

// groupCommit is the live group-commit size K: flush as soon as this
// many completed entries are staged. Clamped so staging alone can never
// exhaust the lag budget.
func (b *Buffer) groupCommit() uint32 {
	return uint32(max(min(b.maxLag.Load(), DefaultGroupCommit), 1))
}

// noteLag advances the high-water lag mark (monotone, CAS race-safe).
func (b *Buffer) noteLag(d uint32) {
	v := uint64(d)
	for {
		hw := b.highWater.Load()
		if v <= hw || b.highWater.CompareAndSwap(hw, v) {
			return
		}
	}
}

// Stats snapshots the buffer counters.
func (b *Buffer) Stats() Stats {
	st := Stats{
		Flushes:      b.flushes.Load(),
		Batched:      b.batched.Load(),
		LagWaits:     b.lagWaits.Load(),
		HighWaterLag: b.highWater.Load(),
	}
	for i := range b.wakeCtrs {
		st.Wakes += b.wakeCtrs[i].wakes.Load()
		st.WakeChecks += b.wakeCtrs[i].checks.Load()
	}
	if b.maxLag.Load() > 0 {
		st.CurLag = uint64(b.curLag())
	}
	return st
}

// curLag samples the live lag: the worst (writtenSeq - consumed)
// distance across partitions and slaves. Counters are cumulative and
// wrap-safe; the read side loads writtenSeq before each consumed
// counter, so a concurrent consume can make the distance appear
// negative (wrapped huge) — such reads are clamped out. The whole walk
// is atomic loads over the shared segment: zero allocations (pinned by
// TestStatsZeroAlloc).
func (b *Buffer) curLag() uint32 {
	var worst uint32
	for p := 0; p < b.nParts; p++ {
		base := b.partBase(p)
		seq := b.seg.LoadU32(base + phWrittenSeq)
		for r := 1; r < b.nReplicas; r++ {
			if d := seq - b.seg.LoadU32(base+phConsumed+uint64(r)*4); d < 1<<31 && d > worst {
				worst = d
			}
		}
	}
	return worst
}

// New creates a buffer over seg for nReplicas replicas and nParts logical
// threads. The arbiter handles overflow resets. Partition size is rounded
// down to a 16-byte multiple so that every header word and entry field is
// naturally aligned for the atomic word API.
func New(seg *mem.SharedSegment, nReplicas, nParts int, arbiter Arbiter) (*Buffer, error) {
	if nReplicas < 1 || nReplicas > maxReplicas {
		return nil, fmt.Errorf("rb: replica count %d out of range", nReplicas)
	}
	if nParts < 1 {
		return nil, fmt.Errorf("rb: need at least one partition")
	}
	avail := seg.Size - globalHeaderSize
	partSize := (avail / uint64(nParts)) &^ 15
	if partSize <= partHeaderSize+entryHeaderSize {
		return nil, fmt.Errorf("rb: segment too small (%d bytes for %d partitions)", seg.Size, nParts)
	}
	return &Buffer{seg: seg, nReplicas: nReplicas, nParts: nParts, partSize: partSize,
		arbiter: arbiter, waits: make([]partWait, nParts),
		wakeCtrs: make([]wakeCtr, nParts)}, nil
}

// Segment exposes the backing shared segment (the monitors map it).
func (b *Buffer) Segment() *mem.SharedSegment { return b.seg }

// Partitions reports the partition count.
func (b *Buffer) Partitions() int { return b.nParts }

// partBase returns the segment offset of partition p's header.
func (b *Buffer) partBase(p int) uint64 {
	return globalHeaderSize + uint64(p)*b.partSize
}

// dataCap is the payload capacity of one partition.
func (b *Buffer) dataCap() uint64 { return b.partSize - partHeaderSize }

// slice returns an aliased view of [off, off+n); offsets are internal, so
// a violation is a bug, not an input error.
func (b *Buffer) slice(off, n uint64) []byte {
	s, err := b.seg.Slice(off, n)
	if err != nil {
		panic("rb: segment view out of range: " + err.Error())
	}
	return s
}

// SetSignalsPending raises/clears the flag GHUMVEE stores at the start of
// the RB when it needs the master to re-enter monitored execution (§3.8).
func (b *Buffer) SetSignalsPending(v bool) {
	var x uint32
	if v {
		x = 1
	}
	b.seg.StoreU32(0, x)
}

// SignalsPending reads the flag.
func (b *Buffer) SignalsPending() bool { return b.seg.LoadU32(0) != 0 }

// partition header field offsets; each word has one meaning (DESIGN.md
// §2). Words 0 and 12 are reserved: the write offset lives in the
// Writer, and the arbiter is called, not signalled through the segment.
const (
	phWrittenSeq = 4
	phGeneration = 8
	phConsumed   = 16 // nReplicas x u32
)

// ConsumedBy reports how many entries replica r has consumed in partition
// p (cumulative across arbiter resets, wrapping).
func (b *Buffer) ConsumedBy(p, r int) uint32 {
	return b.seg.LoadU32(b.partBase(p) + phConsumed + uint64(r)*4)
}

// WrittenSeq reports how many entries the master has published in p
// (cumulative across arbiter resets, wrapping). A reset rewinds only the
// write offset: the futex word a slave parks on never returns to a value
// it held before, so a wait that compares stale cannot sleep through the
// next publication.
func (b *Buffer) WrittenSeq(p int) uint32 {
	return b.seg.LoadU32(b.partBase(p) + phWrittenSeq)
}

// Generation reports partition p's reset generation.
func (b *Buffer) Generation(p int) uint32 {
	return b.seg.LoadU32(b.partBase(p) + phGeneration)
}

// DoReset performs the arbiter's reset of partition p. Callers (GHUMVEE)
// must have established that all slaves drained the partition. Sequence
// numbers and consumed counters stay cumulative; the new generation
// restarts the data area at offset 0.
func (b *Buffer) DoReset(p int) {
	b.seg.StoreU32(b.partBase(p)+phGeneration, b.Generation(p)+1)
}

// align16 rounds n up to a 16-byte boundary.
func align16(n uint64) uint64 { return (n + 15) &^ 15 }

// Writer is the master-side per-logical-thread cursor.
type Writer struct {
	b    *Buffer
	part int
	// base is the RB's mapped address in the master replica; futex
	// syscalls address the buffer through it. It never leaves the
	// monitor.
	base mem.Addr
	off  uint64 // write offset within the partition data area
	// polVer is the policy snapshot version stamped into each entry
	// header: the master's IP-MON sets it before Reserve so slaves learn
	// policy pin advances in stream order (internal/policy engine).
	polVer uint32
	// hdr is the staging buffer for entry headers: fields are assembled
	// here and land in the segment with one copy, replacing the seed's
	// ~15 individually locked word writes per entry.
	hdr [entryHeaderSize]byte

	// seq is the cumulative reservation count (u32, wrapping) and
	// published mirrors the last writtenSeq release-store. At MaxLag 0
	// published follows seq at every Reserve.
	seq       uint32
	published uint32
}

// SetPolicyVer sets the policy version stamped into subsequent entries.
func (w *Writer) SetPolicyVer(v uint32) { w.polVer = v }

// NewWriter creates the master-side cursor for partition part.
func (b *Buffer) NewWriter(part int, base mem.Addr) *Writer {
	return &Writer{b: b, part: part, base: base}
}

// Rebase changes the writer's mapping address after an RB migration
// (§4's periodic-move extension). Segment-relative state is unaffected.
func (w *Writer) Rebase(base mem.Addr) { w.base = base }

// Reservation is an in-progress entry the master is filling. It is a
// value type: reserving an entry allocates nothing.
type Reservation struct {
	w        *Writer
	entryOff uint64 // segment offset of the entry
	inAlign  uint64 // aligned input payload length (out payload offset)
	outCap   int
	seq      uint32
	// batched: publication is deferred to the next group commit (the
	// entry carries FlagBatched).
	batched bool
}

// Reserve allocates an entry for the given call. inPayload is the deep
// copy of the input buffers (PRECALL's argument log); outCap reserves
// space for the results (CALCSIZE). A nil error means the entry is
// allocated and, unless flags carry FlagBatched, its arguments are
// published. ErrTooBig means the call must be forwarded to GHUMVEE
// instead. A FlagBatched entry is staged without publication until the
// next group commit (DESIGN.md §9).
//
// t is the master thread (for virtual-time charging and futex wakes).
func (w *Writer) Reserve(t *vkernel.Thread, c *vkernel.Call, flags uint32, inPayload []byte, outCap int) (Reservation, error) {
	b := w.b
	inLen := uint64(len(inPayload))
	need := align16(entryHeaderSize + align16(inLen) + uint64(outCap))
	if need > b.dataCap() {
		return Reservation{}, ErrTooBig
	}
	batched := flags&FlagBatched != 0
	base := b.partBase(w.part)

	// Publication order: an immediately-published entry may not overtake
	// staged ones — writtenSeq covers a prefix.
	if !batched {
		w.Flush(t)
	}

	// Lag window: after this entry the master may be at most MaxLag
	// entries ahead of the slowest slave's acknowledged consumption.
	// High-water/low-water hysteresis: once the cap is hit, wait until
	// half the window is free — a saturated stream then pays one wait
	// per MaxLag/2 entries instead of one per entry, and each slave wake
	// batch is amortised the same way. MaxLag 0 has no budget.
	if maxLag := uint32(b.maxLag.Load()); maxLag > 0 && w.lag() >= maxLag {
		w.Flush(t)
		w.waitConsumed(t, w.seq+1-max(maxLag/2, 1))
	}

	// Overflow: request an arbiter reset and wait for it (§3.2). The
	// master "waits for the slaves to consume the data already in the RB,
	// after which it resets the RB" (§3.3) — the arbiter does both. The
	// staged run is published first, or the arbiter would reset under
	// entries no slave can see yet.
	if w.off+need > b.dataCap() {
		w.Flush(t)
		b.arbiter.ResetPartition(b, w.part)
		w.off = 0
		// Waiters blocked on writtenSeq must recheck the generation.
		w.wakeFutex(t, base+phWrittenSeq)
	}

	entryOff := base + partHeaderSize + w.off
	// Stage the header in the scratch buffer. Result fields (retval,
	// errno, resPub, outLen) are zeroed here and filled by Complete;
	// status starts at 0 ("results pending").
	hdr := &w.hdr
	clear(hdr[:])
	le.PutUint32(hdr[offSize:], uint32(need))
	le.PutUint32(hdr[offNr:], uint32(c.Num))
	le.PutUint32(hdr[offSeq:], w.seq)
	le.PutUint32(hdr[offPolicyVer:], w.polVer)
	le.PutUint32(hdr[offFlags:], flags)
	le.PutUint32(hdr[offNArgs:], 6)
	le.PutUint64(hdr[offArgsPub:], uint64(t.Clock.Now()))
	for i := 0; i < 6; i++ {
		le.PutUint64(hdr[offArgs+i*8:], c.Args[i])
	}
	le.PutUint32(hdr[offInLen:], uint32(inLen))
	// One plain copy into the aliased view for header + input payload;
	// the release-store of writtenSeq publishes both.
	dst := b.slice(entryOff, entryHeaderSize+align16(inLen))
	copy(dst, hdr[:])
	if inLen > 0 {
		copy(dst[offPayload:], inPayload)
	}
	t.Clock.Advance(model.RBCopyCost(entryHeaderSize + len(inPayload)))

	// Cache-coherence pressure: each additional replica consuming this
	// entry costs the writer a line transfer (the memory-subsystem term
	// the paper's evaluation attributes multi-replica slowdowns to).
	t.Clock.Advance(model.Duration(b.nReplicas-1) * model.CostRBSharePerReplica)

	res := Reservation{w: w, entryOff: entryOff, inAlign: align16(inLen), outCap: outCap, seq: w.seq, batched: batched}
	w.off += need
	w.seq++

	if batched {
		b.batched.Add(1)
		return res, nil
	}
	// Immediate publication: release-store writtenSeq and wake slaves
	// waiting for it, so they overlap their comparison with the master's
	// call.
	b.seg.StoreU32(base+phWrittenSeq, w.seq)
	w.published = w.seq
	w.wakeFutex(t, base+phWrittenSeq)
	return res, nil
}

// lag is the distance (entries) between the master's reservations and
// the slowest slave's acknowledged consumption, wrap-safe.
func (w *Writer) lag() uint32 {
	var worst uint32
	base := w.b.partBase(w.part)
	for r := 1; r < w.b.nReplicas; r++ {
		if d := w.seq - w.b.seg.LoadU32(base+phConsumed+uint64(r)*4); d > worst {
			worst = d
		}
	}
	return worst
}

// Flush publishes every staged entry with a single writtenSeq
// release-store and at most one futex wake — the group commit. A no-op
// when nothing staged is unpublished (always at MaxLag 0, so barrier
// call sites need not branch).
//
// Flush publishes up to w.seq, not up to the last completed entry: on
// the group-commit paths the two are equal (Complete flushes after
// completing, Reserve flushes before staging), but a hard barrier can
// fire with a staged, not-yet-completed reservation in flight — the
// master is being routed to the CP monitor mid-call (e.g. the
// invalid-token fallback) and the slave must be able to read that
// entry's arguments to mirror the stream, exactly as publication at
// Reserve would have allowed. Such an entry is published with status 0;
// its Complete then wakes the status futex like an immediate entry's.
func (w *Writer) Flush(t *vkernel.Thread) {
	delta := w.seq - w.published
	if delta == 0 || delta >= 1<<31 {
		return
	}
	base := w.b.partBase(w.part)
	w.b.seg.StoreU32(base+phWrittenSeq, w.seq)
	w.published = w.seq
	w.b.flushes.Add(1)
	w.b.noteLag(w.lag())
	w.wakeFutex(t, base+phWrittenSeq)
}

// waitConsumed blocks until every slave's consumed counter has reached
// target (wrap-safe) or the writer's thread exits.
func (w *Writer) waitConsumed(t *vkernel.Thread, target uint32) {
	if w.consumedReached(target) {
		return
	}
	w.b.lagWaits.Add(1)
	w.b.waits[w.part].await(func() bool { return w.consumedReached(target) }, "rb.lag", t.Clock.Now(), t.Done())
}

// partWait is one partition's writer-side wait on slave consumption:
// the waiter raises armed before its first check, and Consume wakes q
// when it sees armed after its store (DESIGN.md §15).
type partWait struct {
	mu    sync.Mutex
	q     wait.Queue
	armed atomic.Int32
}

// await parks until done reports true or cancel closes.
func (pw *partWait) await(done func() bool, r wait.Reason, vt model.Duration, cancel <-chan struct{}) {
	pw.armed.Add(1)
	pw.mu.Lock()
	for !done() {
		if _, ok := pw.q.ParkUntil(&pw.mu, r, vt, cancel, time.Time{}); !ok {
			break
		}
	}
	pw.mu.Unlock()
	pw.armed.Add(-1)
}

// consumedReached reports whether every slave's acknowledged consumption
// has reached target (wrap-safe: distances are always < 2^31).
func (w *Writer) consumedReached(target uint32) bool {
	base := w.b.partBase(w.part)
	for r := 1; r < w.b.nReplicas; r++ {
		if d := target - w.b.seg.LoadU32(base+phConsumed+uint64(r)*4); d != 0 && d < 1<<31 {
			return false
		}
	}
	return true
}

// wakeFutex wakes waiters on the futex word at segment offset segOff, but
// only if someone is waiting (§3.7 wake suppression).
func (w *Writer) wakeFutex(t *vkernel.Thread, segOff uint64) {
	addr := w.base + mem.Addr(segOff)
	ctr := &w.b.wakeCtrs[w.part]
	ctr.checks.Add(1)
	if !w.b.alwaysWake && t.Proc.Kernel.WaitingOn(t.Proc, addr) == 0 {
		return
	}
	ctr.wakes.Add(1)
	t.RawSyscall(vkernel.SysFutex, uint64(addr), vkernel.FutexWake, ^uint64(0)>>1)
}

// Complete publishes the call's results into the reservation: return
// value, errno and the output payload (POSTCALL's REPLICATEBUFFER). The
// entry's status word is the release-store; slaves read the result fields
// only after observing it.
func (r *Reservation) Complete(t *vkernel.Thread, ret uint64, errno vkernel.Errno, outPayload []byte) {
	if len(outPayload) > r.outCap {
		outPayload = outPayload[:r.outCap]
	}
	w := r.w
	b := w.b
	if len(outPayload) > 0 {
		copy(b.slice(r.entryOff+offPayload+r.inAlign, uint64(len(outPayload))), outPayload)
	}
	b.seg.StoreU64(r.entryOff+offRetVal, ret)
	b.seg.StoreU32(r.entryOff+offRetErrno, uint32(errno))
	b.seg.StoreU32(r.entryOff+offOutLen, uint32(len(outPayload)))
	b.seg.StoreU64(r.entryOff+offResPub, uint64(t.Clock.Now()))
	t.Clock.Advance(model.RBCopyCost(len(outPayload) + 16))
	// Release: status = 1, then wake any slave parked on this entry's
	// condition variable. A batched entry is not yet visible — its status
	// rides the group commit's writtenSeq release-store, so no slave can
	// be parked on it and the store needs no wake.
	b.seg.StoreU32(r.entryOff+offStatus, 1)
	if r.batched {
		if d := w.published - r.seq; d == 0 || d >= 1<<31 {
			// Entries up to this one are complete: group-commit them once
			// K are staged.
			if r.seq+1-w.published >= b.groupCommit() {
				w.Flush(t)
			}
			return
		}
		// A hard barrier published this reservation before its results
		// existed (Flush with an in-flight entry): a slave may be parked
		// on the status word — wake it like an immediate entry's
		// completion.
	}
	w.wakeFutex(t, r.entryOff+offStatus)
}

// Reader is a slave-side per-logical-thread cursor.
type Reader struct {
	b       *Buffer
	part    int
	replica int
	base    mem.Addr // RB mapping address in this slave replica
	gen     uint32
	seq     uint32
	off     uint64
	// runLeft is the number of claimed-run entries not yet consumed:
	// NextRun claims a contiguous run with one writtenSeq acquire-load,
	// Next serves entries out of it without touching shared header words,
	// and the consumed-counter store is issued once when the run is
	// exhausted.
	runLeft uint32
	// view is the reusable entry view Next hands out (one entry is in
	// flight per cursor at a time, so consuming a new entry may recycle
	// the previous view).
	view EntryView
}

// NewReader creates the slave-side cursor for partition part.
func (b *Buffer) NewReader(part, replica int, base mem.Addr) *Reader {
	return &Reader{b: b, part: part, replica: replica, base: base}
}

// Rebase changes the reader's mapping address after an RB migration.
func (r *Reader) Rebase(base mem.Addr) { r.base = base }

// EntryView is a consumed entry header. Views returned by Next are valid
// until the next Next call on the same Reader or the partition's arbiter
// reset, whichever comes first.
type EntryView struct {
	r        *Reader
	entryOff uint64
	size     uint32 // validated total entry size, cached for Consume
	Nr       int
	Flags    uint32
	Args     [6]uint64
	InLen    int
	// PolicyVer is the policy snapshot version the master pinned after
	// writing this entry (0 when the writer never stamped one).
	PolicyVer uint32
}

// Next blocks until the master publishes the next entry and returns its
// view, claiming a new run first when the previous one is exhausted. The
// slave's clock syncs to the master's argument-publish time.
//
// The returned view is owned by the Reader and recycled on the next call.
func (r *Reader) Next(t *vkernel.Thread) (*EntryView, error) {
	if r.runLeft == 0 {
		if _, err := r.NextRun(t); err != nil {
			return nil, err
		}
	}
	entryOff := r.b.partBase(r.part) + partHeaderSize + r.off
	// The acquire-load of writtenSeq in NextRun makes the master's staged
	// header visible; parse it straight out of the aliased view. Only
	// argument-side fields are touched — the result fields (retval,
	// errno, resPub, outLen, status) may be written concurrently by the
	// master's Complete and are read in WaitResults after its
	// release-store.
	hdr := r.b.slice(entryOff, entryHeaderSize)
	size := le.Uint32(hdr[offSize:])
	if size < entryHeaderSize || uint64(size) > r.b.dataCap() {
		return nil, ErrCorrupt
	}
	ev := &r.view
	*ev = EntryView{
		r:         r,
		entryOff:  entryOff,
		size:      size,
		Nr:        int(le.Uint32(hdr[offNr:])),
		Flags:     le.Uint32(hdr[offFlags:]),
		InLen:     int(le.Uint32(hdr[offInLen:])),
		PolicyVer: le.Uint32(hdr[offPolicyVer:]),
	}
	for i := 0; i < 6; i++ {
		ev.Args[i] = le.Uint64(hdr[offArgs+i*8:])
	}
	if le.Uint32(hdr[offSeq:]) != r.seq {
		return nil, ErrCorrupt
	}
	t.Clock.Advance(model.CostRBReadBase)
	t.Clock.SyncTo(model.Duration(le.Uint64(hdr[offArgsPub:])))
	return ev, nil
}

// NextRun blocks until the master publishes at least one entry this
// reader has not consumed and claims a contiguous run of them — one
// writtenSeq acquire-load covers the whole run, and the consumed-counter
// store is deferred until the run is drained. It returns the run length;
// Next serves the individual views. A run never spans an arbiter reset:
// the reset waits for every consumed counter, and a reader stores its
// counter only once its run is drained.
func (r *Reader) NextRun(t *vkernel.Thread) (int, error) {
	if r.runLeft > 0 {
		return int(r.runLeft), nil
	}
	base := r.b.partBase(r.part)
	for {
		if t.Exited() {
			// The MVEE is tearing down (divergence shutdown); unwind.
			return 0, ErrCorrupt
		}
		// Acquire: the writtenSeq load orders every published entry's
		// header, payload and (for batched entries) results before the
		// parses that follow. It comes before the generation load, so a
		// publication past an arbiter reset implies the reset's generation
		// store is visible and the offset rewinds before the entry is read.
		ws := r.b.seg.LoadU32(base + phWrittenSeq)
		if gen := r.b.seg.LoadU32(base + phGeneration); gen != r.gen {
			// Arbiter reset since our last run: the data area restarts.
			r.gen = gen
			r.off = 0
		}
		if avail := ws - r.seq; avail != 0 && avail < 1<<31 {
			r.runLeft = min(avail, maxDrainRun)
			return int(r.runLeft), nil
		}
		// Nothing published for us yet: park on the writtenSeq futex word
		// (through this replica's own mapping address).
		t.RawSyscall(vkernel.SysFutex, uint64(r.base+mem.Addr(base+phWrittenSeq)), vkernel.FutexWait, uint64(ws))
	}
}

// InPayload returns the master's deep-copied input buffers as a view
// aliasing the shared segment — no copy. The view is read-only and valid
// until the entry's partition is reset; callers that retain it past
// Consume must copy.
func (ev *EntryView) InPayload() []byte {
	if ev.InLen == 0 {
		return nil
	}
	return ev.r.b.slice(ev.entryOff+offPayload, uint64(ev.InLen))
}

// CompareCall checks the slave's own call against the master's record:
// syscall number, register arguments (CHECKREG) and input payload
// (CHECKPOINTER + deep compare). A mismatch is the divergence signal that
// makes IP-MON crash the replica intentionally (§3.3). The payload
// comparison runs against the aliased master view — no copy is made.
func (ev *EntryView) CompareCall(t *vkernel.Thread, c *vkernel.Call, regMask uint8, slavePayload []byte) error {
	if ev.Nr != c.Num {
		return fmt.Errorf("%w: syscall %s vs master %s", ErrDiverged,
			vkernel.SyscallName(c.Num), vkernel.SyscallName(ev.Nr))
	}
	for i := 0; i < 6; i++ {
		if regMask&(1<<uint(i)) == 0 {
			continue
		}
		if ev.Args[i] != c.Args[i] {
			return fmt.Errorf("%w: arg%d %#x vs master %#x", ErrDiverged, i, c.Args[i], ev.Args[i])
		}
		t.Clock.Advance(model.CostMonitorCompare)
	}
	if slavePayload != nil {
		masterIn := ev.InPayload()
		if len(masterIn) != len(slavePayload) {
			return fmt.Errorf("%w: payload length %d vs master %d", ErrDiverged, len(slavePayload), len(masterIn))
		}
		if !bytes.Equal(masterIn, slavePayload) {
			i := 0
			for i < len(masterIn) && masterIn[i] == slavePayload[i] {
				i++
			}
			return fmt.Errorf("%w: payload byte %d differs", ErrDiverged, i)
		}
		t.Clock.Advance(model.RBCopyCost(len(masterIn)))
	}
	return nil
}

// WaitResults blocks until the master completes the entry, then returns
// the results. If the blocking flag is clear the slave spins (bounded)
// before falling back to the futex; if set it parks immediately on the
// entry's dedicated condition variable (§3.7).
//
// out is a view aliasing the shared segment (no copy); it is read-only
// and valid until the entry's partition is reset. Callers that retain it
// past Consume must copy.
func (ev *EntryView) WaitResults(t *vkernel.Thread) (ret uint64, errno vkernel.Errno, out []byte) {
	b := ev.r.b
	statusOff := ev.entryOff + offStatus
	if ev.Flags&FlagBlocking == 0 {
		for i := 0; i < statusSpinLimit; i++ {
			if b.seg.LoadU32(statusOff) == 1 {
				break
			}
			t.Clock.Advance(model.CostSpinIter)
		}
	}
	for b.seg.LoadU32(statusOff) != 1 {
		if t.Exited() {
			return 0, vkernel.EPERM, nil
		}
		t.RawSyscall(vkernel.SysFutex, uint64(ev.r.base+mem.Addr(statusOff)), vkernel.FutexWait, 0)
	}
	// The acquire-load of status above orders these reads after the
	// master's result stores.
	ret = b.seg.LoadU64(ev.entryOff + offRetVal)
	errno = vkernel.Errno(b.seg.LoadU32(ev.entryOff + offRetErrno))
	outLen := int(b.seg.LoadU32(ev.entryOff + offOutLen))
	if outLen > 0 {
		out = b.slice(ev.entryOff+offPayload+align16(uint64(ev.InLen)), uint64(outLen))
	}
	t.Clock.Advance(model.RBCopyCost(outLen + 16))
	t.Clock.SyncTo(model.Duration(b.seg.LoadU64(ev.entryOff + offResPub)))
	return ret, errno, out
}

// Consume advances past the entry. The consumed-counter store — this
// replica's own slot only, no read-write sharing — is issued once the
// claimed run is drained. It then wakes the partition's writer-side wait
// if one is armed (the lag budget or the arbiter's drain); the common
// path stays notification-free.
func (ev *EntryView) Consume() {
	r := ev.r
	r.off += uint64(ev.size)
	r.seq++
	r.runLeft--
	if r.runLeft > 0 {
		return
	}
	b := r.b
	b.seg.StoreU32(b.partBase(r.part)+phConsumed+uint64(r.replica)*4, r.seq)
	if pw := &b.waits[r.part]; pw.armed.Load() != 0 {
		pw.mu.Lock()
		pw.q.WakeAll(0)
		pw.mu.Unlock()
	}
}

// WaitDrained blocks until every slave has drained partition p or abort
// is closed (a nil abort never fires). The consumer whose store drains
// the partition wakes it (partWait).
func (b *Buffer) WaitDrained(p int, abort <-chan struct{}) {
	b.waits[p].await(func() bool { return b.Drained(p) }, "rb.drain", 0, abort)
}

// Drained reports whether every slave has consumed all published entries
// in partition p — the arbiter's reset precondition.
func (b *Buffer) Drained(p int) bool {
	ws := b.WrittenSeq(p)
	for rIdx := 1; rIdx < b.nReplicas; rIdx++ {
		if d := ws - b.ConsumedBy(p, rIdx); d != 0 && d < 1<<31 {
			return false
		}
	}
	return true
}

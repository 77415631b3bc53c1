// Package gen is the seeded attack-trace generator: it compiles
// vulnerability-class templates — the CVE taxonomy classes the hand
// written suite in internal/attack cannot enumerate — into concrete
// workload traces: syscall sequences with one tamper point (the
// compromised-master substitution) and an expected-verdict predicate.
//
// The security claim under test is the paper's §4 argument made
// mechanical: no matter which class the vulnerability falls in, which
// descriptor it targets, where in the call stream the payload lands, or
// how the deployment is tuned (relaxation level, master-ahead lag,
// shard count), the divergence between the compromised
// master and the benign replica is caught — by IP-MON's in-process frame
// comparison when the tampered call is relaxed, by GHUMVEE's lockstep
// rendezvous when it is monitored, and by the IK-B verifier when the
// attack forges capabilities instead of diverging. Every generated trace
// must end DEFEATED in every grid cell, with bit-identical verdict
// detail across lag and shard settings.
//
// Generation is deterministic: a template's parameters (target fd class,
// payload shape, injection offset) derive from model.NewRNG seeded by
// (Seed, class, variant), so the same Params always yield byte-identical
// traces — the property the golden matrix and the fuzz corpus seeds rely
// on.
package gen

import (
	"fmt"

	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/workload"
)

// Class is a vulnerability class from the taxonomy (ROADMAP "Scenario
// matrix": IoT-binary CVE classes plus the crypto-API misuse split).
type Class int

// Vulnerability classes.
const (
	// OverflowSyscallArgs: a buffer overflow reaches a syscall argument —
	// the master's write length is inflated past the benign payload.
	OverflowSyscallArgs Class = iota
	// PartialWriteLeak: an out-of-bounds read leaks adjacent memory into
	// the tail of an otherwise well-formed write (same length, different
	// bytes — Heartbleed-shaped).
	PartialWriteLeak
	// FDConfusion: a dangling or attacker-controlled descriptor number
	// redirects an otherwise benign write to the wrong kernel object.
	FDConfusion
	// CrossReplicaTOCTOU: the master's check-to-use window is exploited —
	// a path or offset argument changes between validation and use, so
	// the master's call stream carries different arguments than the
	// benign replica's.
	CrossReplicaTOCTOU
	// TokenMisuse: a compromised IP-MON fabricates an IK-B capability —
	// a forged Context and guessed token — to complete a call
	// unmonitored. No divergence: the kernel-side verifier must catch it.
	TokenMisuse
	// CryptoKeyMisuse: key material that should only ever cross the
	// syscall boundary sealed is written raw through a relaxed
	// descriptor ("Roll Your Own Crypto": memory-safety bugs dominate
	// crypto-API misuse).
	CryptoKeyMisuse
)

var classNames = map[Class]string{
	OverflowSyscallArgs: "overflow-syscall-args",
	PartialWriteLeak:    "partial-write-leak",
	FDConfusion:         "fd-confusion",
	CrossReplicaTOCTOU:  "cross-replica-toctou",
	TokenMisuse:         "token-misuse",
	CryptoKeyMisuse:     "crypto-key-misuse",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists every vulnerability class in generation order.
func Classes() []Class {
	return []Class{
		OverflowSyscallArgs, PartialWriteLeak, FDConfusion,
		CrossReplicaTOCTOU, TokenMisuse, CryptoKeyMisuse,
	}
}

// Target is a template's target-descriptor parameter.
type Target int

// Target descriptor kinds.
const (
	TargetFile Target = iota
	TargetPipe
	TargetSocket
)

func (t Target) String() string {
	switch t {
	case TargetFile:
		return "file"
	case TargetPipe:
		return "pipe"
	case TargetSocket:
		return "socket"
	}
	return "?"
}

// FDClass maps the target to its policy descriptor class.
func (t Target) FDClass() policy.FDClass {
	if t == TargetSocket {
		return policy.FDSock
	}
	return policy.FDNonSocket
}

// ProbeSpec describes a token-misuse probe: the syscall number the forged
// completion names and the guessed token. The matrix runner materialises
// it into a TraceProbe closure per MVEE instance (the closure needs the
// instance's live broker).
type ProbeSpec struct {
	Nr    int
	Token uint64
}

// Trace is one compiled attack: a replayable op sequence with a single
// tamper point and everything the runner needs to predict the verdict.
type Trace struct {
	Class   Class
	Variant int
	// Name is the stable identifier: class/variant plus the resolved
	// template parameters.
	Name string
	// Ops is the replica program (see workload.TraceProgram). Replica 0
	// applies the tamper embedded at TamperIndex.
	Ops []workload.TraceOp
	// TamperIndex is the op index of the injection point.
	TamperIndex int
	// TamperPayload is the exfiltration byte pattern, used verbatim by
	// the live-fleet path (Fleet.InjectTamper). nil for probe-only
	// traces.
	TamperPayload []byte
	// TamperNr and TamperClass feed the attribution predicate: the
	// syscall number and descriptor class of the tampered call.
	TamperNr    int
	TamperClass policy.FDClass
	// Probe is set for TokenMisuse traces; such traces diverge nowhere
	// and are defeated by the IK-B verifier instead.
	Probe *ProbeSpec
}

// WantDiverged reports whether the trace's defeat is a divergence verdict
// (true for every class except TokenMisuse, whose defeat is a token
// violation on a healthy run).
func (tr *Trace) WantDiverged() bool { return tr.Probe == nil }

// WantIPMon reports whether, at the given relaxation level, the tampered
// call executes unmonitored — i.e. whether IP-MON's in-process comparison
// (rather than GHUMVEE's lockstep rendezvous) must file the verdict. The
// attack is defeated either way; this pins *which* monitor caught it, so
// a cell where the wrong layer fired fails the matrix.
func (tr *Trace) WantIPMon(level policy.Level) bool {
	if tr.Probe != nil {
		return false
	}
	return policy.RelaxedAt(level, tr.TamperNr, tr.TamperClass)
}

// Params seeds the generator.
type Params struct {
	// Seed drives every template parameter. 0 selects DefaultSeed.
	Seed uint64
	// Variants is the number of parameter variants per class (0 = 4).
	Variants int
}

// DefaultSeed is the corpus seed used by the matrix tests, the fuzz
// corpus and the bench snapshot.
const DefaultSeed = 0x9E3779B97F4A7C15

// Traces compiles the full corpus: every class × Variants parameter
// variants, deterministically derived from the seed.
func Traces(p Params) []*Trace {
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.Variants <= 0 {
		p.Variants = 4
	}
	var out []*Trace
	for _, class := range Classes() {
		for v := 0; v < p.Variants; v++ {
			rng := model.NewRNG(p.Seed ^ uint64(class+1)<<40 ^ uint64(v+1)<<16)
			out = append(out, compile(class, v, rng))
		}
	}
	return out
}

// builder accumulates ops and tracks the descriptor-slot table the way
// replay will (TraceOpen: one slot; TracePipe: two; TraceSocket: one).
type builder struct {
	ops   []workload.TraceOp
	slots int
}

func (b *builder) push(op workload.TraceOp) int {
	b.ops = append(b.ops, op)
	return len(b.ops) - 1
}

func (b *builder) open(path string) int {
	b.push(workload.TraceOp{Kind: workload.TraceOpen, Path: path})
	s := b.slots
	b.slots++
	return s
}

func (b *builder) pipe() (int, int) {
	b.push(workload.TraceOp{Kind: workload.TracePipe})
	r, w := b.slots, b.slots+1
	b.slots += 2
	return r, w
}

func (b *builder) socket() int {
	b.push(workload.TraceOp{Kind: workload.TraceSocket})
	s := b.slots
	b.slots++
	return s
}

// block builds a deterministic payload of n bytes from a one-byte tag.
func block(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i%23)
	}
	return p
}

// filler appends n benign ops drawn from the rng — the instruction
// stream around the injection point. Only the primary file slot and path
// are referenced, so filler composes with any template.
func filler(b *builder, file int, path string, rng *model.RNG, n int) {
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			b.push(workload.TraceOp{Kind: workload.TraceGetpid})
		case 1:
			b.push(workload.TraceOp{Kind: workload.TraceTime})
		case 2:
			b.push(workload.TraceOp{Kind: workload.TraceStat, Path: path})
		case 3:
			b.push(workload.TraceOp{Kind: workload.TraceAccess, Path: path})
		case 4:
			b.push(workload.TraceOp{Kind: workload.TracePread, Slot: file, Len: 16})
		case 5:
			b.push(workload.TraceOp{Kind: workload.TraceWrite, Slot: file, Data: block('f', 8)})
		}
	}
}

// scaffold builds the common preamble: the primary data file (seeded
// with readable content) plus the target descriptor, and returns the
// target slot.
func scaffold(b *builder, class Class, v int, target Target) (tslot int, file int, path string) {
	path = fmt.Sprintf("/tmp/gen-%s-v%d.dat", class, v)
	file = b.open(path)
	b.push(workload.TraceOp{Kind: workload.TraceWrite, Slot: file, Data: block('s', 64)})
	tslot = file
	switch target {
	case TargetPipe:
		_, w := b.pipe()
		tslot = w
	case TargetSocket:
		tslot = b.socket()
	}
	return tslot, file, path
}

// dataOp appends the class-appropriate data-plane op (write for
// non-sockets, send for sockets) carrying data, with an optional tamper.
func dataOp(b *builder, target Target, slot int, data []byte, tam *workload.TraceTamper) int {
	kind := workload.TraceWrite
	if target == TargetSocket {
		kind = workload.TraceSend
	}
	return b.push(workload.TraceOp{Kind: kind, Slot: slot, Data: data, Tamper: tam})
}

func compile(class Class, v int, rng *model.RNG) *Trace {
	b := &builder{}
	tr := &Trace{Class: class, Variant: v}

	// Shared parameters: target fd class, payload length, injection
	// offset (benign ops between scaffold and tamper).
	targets := []Target{TargetFile, TargetPipe, TargetSocket}
	target := targets[v%len(targets)]
	payLen := 16 + 8*rng.Intn(6)
	injOff := 1 + rng.Intn(6)

	switch class {
	case OverflowSyscallArgs:
		tslot, file, path := scaffold(b, class, v, target)
		filler(b, file, path, rng, injOff)
		benign := block('p', payLen)
		delta := 8 + rng.Intn(24)
		over := make([]byte, payLen+delta)
		copy(over, benign)
		copy(over[payLen:], block('A', delta))
		tam := workload.NoTamper()
		tam.Data = over
		tr.TamperIndex = dataOp(b, target, tslot, benign, &tam)
		filler(b, file, path, rng, 2)
		tr.TamperPayload = over
		tr.TamperNr = policy.ClassIO(target.FDClass(), true)
		tr.TamperClass = target.FDClass()
		tr.Name = fmt.Sprintf("%s/v%d[target=%s len=%d+%d off=%d]", class, v, target, payLen, delta, injOff)

	case PartialWriteLeak:
		tslot, file, path := scaffold(b, class, v, target)
		filler(b, file, path, rng, injOff)
		benign := block('p', payLen)
		leak := append([]byte(nil), benign...)
		k := 4 + rng.Intn(payLen/2)
		copy(leak[payLen-k:], block('K', k)) // adjacent "secret" bytes
		tam := workload.NoTamper()
		tam.Data = leak
		tr.TamperIndex = dataOp(b, target, tslot, benign, &tam)
		filler(b, file, path, rng, 2)
		tr.TamperPayload = leak
		tr.TamperNr = policy.ClassIO(target.FDClass(), true)
		tr.TamperClass = target.FDClass()
		tr.Name = fmt.Sprintf("%s/v%d[target=%s len=%d leak=%d off=%d]", class, v, target, payLen, k, injOff)

	case FDConfusion:
		// Confusion stays within the non-socket class (file↔file,
		// pipe↔pipe, file↔pipe, pipe↔file): both descriptors carry the
		// same relaxation verdict, so the replicas' monitored and
		// unmonitored streams stay aligned and the fd-number mismatch
		// itself is what the comparison catches.
		kinds := [][2]Target{
			{TargetFile, TargetFile},
			{TargetPipe, TargetPipe},
			{TargetFile, TargetPipe},
			{TargetPipe, TargetFile},
		}
		pair := kinds[v%len(kinds)]
		benignSlot, file, path := scaffold(b, class, v, pair[0])
		var decoySlot int
		if pair[1] == TargetFile {
			decoySlot = b.open(path + ".decoy")
		} else {
			_, decoySlot = b.pipe()
		}
		filler(b, file, path, rng, injOff)
		tam := workload.NoTamper()
		tam.Slot = decoySlot
		data := block('p', payLen)
		tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TraceWrite, Slot: benignSlot, Data: data, Tamper: &tam})
		filler(b, file, path, rng, 2)
		tr.TamperPayload = data
		tr.TamperNr = vkernel.SysWrite
		tr.TamperClass = policy.FDNonSocket
		tr.Name = fmt.Sprintf("%s/v%d[%s->%s len=%d off=%d]", class, v, pair[0], pair[1], payLen, injOff)

	case CrossReplicaTOCTOU:
		kinds := []string{"stat", "access", "pread", "lseek"}
		kind := kinds[v%len(kinds)]
		_, file, path := scaffold(b, class, v, TargetFile)
		other := path + ".swapped"
		ofd := b.open(other) // both paths exist on every replica
		b.push(workload.TraceOp{Kind: workload.TraceClose, Slot: ofd})
		// The check half of check-to-use.
		b.push(workload.TraceOp{Kind: workload.TraceStat, Path: path})
		filler(b, file, path, rng, injOff) // the race window
		tam := workload.NoTamper()
		switch kind {
		case "stat":
			tam.Path = other
			tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TraceStat, Path: path, Tamper: &tam})
			tr.TamperNr = vkernel.SysStat
		case "access":
			tam.Path = other
			tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TraceAccess, Path: path, Tamper: &tam})
			tr.TamperNr = vkernel.SysAccess
		case "pread":
			off := int64(rng.Intn(16))
			tam.Off = off + 8 + int64(rng.Intn(16))
			tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TracePread, Slot: file, Len: 16, Off: off, Tamper: &tam})
			tr.TamperNr = vkernel.SysPread64
		case "lseek":
			off := int64(rng.Intn(16))
			tam.Off = off + 8 + int64(rng.Intn(16))
			tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TraceLseek, Slot: file, Off: off, Tamper: &tam})
			tr.TamperNr = vkernel.SysLseek
		}
		filler(b, file, path, rng, 2)
		tr.TamperPayload = []byte(other)
		tr.TamperClass = policy.FDNonSocket
		tr.Name = fmt.Sprintf("%s/v%d[use=%s off=%d]", class, v, kind, injOff)

	case TokenMisuse:
		// The probe call the forged completion names: exempt-at-all-levels,
		// conditionally exempt, socket-write, and never-grantable — the
		// four interesting corners of the kernel-side grant check.
		nrs := []int{vkernel.SysGetpid, vkernel.SysWrite, vkernel.SysSendto, vkernel.SysMmap}
		nr := nrs[v%len(nrs)]
		_, file, path := scaffold(b, class, v, TargetFile)
		filler(b, file, path, rng, injOff)
		tr.TamperIndex = b.push(workload.TraceOp{Kind: workload.TraceProbe})
		filler(b, file, path, rng, 2)
		tr.Probe = &ProbeSpec{Nr: nr, Token: rng.Uint64() | 1}
		tr.TamperNr = nr
		tr.TamperClass = policy.FDNonSocket
		tr.Name = fmt.Sprintf("%s/v%d[nr=%d off=%d]", class, v, nr, injOff)

	case CryptoKeyMisuse:
		tslot, file, path := scaffold(b, class, v, target)
		keyLens := []int{16, 32, 48, 64}
		keyLen := keyLens[rng.Intn(len(keyLens))]
		filler(b, file, path, rng, injOff)
		// The benign replica writes the sealed blob; the compromised
		// master writes the raw key schedule instead — same length, the
		// content *is* the leak.
		sealed := append([]byte("SEALED:"), block('x', keyLen)...)
		key := append([]byte(nil), sealed...)
		krng := model.NewRNG(rng.Uint64())
		for i := range key {
			key[i] = byte(krng.Uint64())
		}
		key[0] = sealed[0] ^ 0xFF // divergence guaranteed at byte 0
		tam := workload.NoTamper()
		tam.Data = key
		tr.TamperIndex = dataOp(b, target, tslot, sealed, &tam)
		filler(b, file, path, rng, 2)
		tr.TamperPayload = key
		tr.TamperNr = policy.ClassIO(target.FDClass(), true)
		tr.TamperClass = target.FDClass()
		tr.Name = fmt.Sprintf("%s/v%d[target=%s key=%d off=%d]", class, v, target, keyLen, injOff)
	}

	tr.Ops = b.ops
	return tr
}

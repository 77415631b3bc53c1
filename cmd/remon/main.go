// Command remon runs a demonstration workload under the ReMon MVEE and
// prints monitor, broker and IP-MON statistics — the quickest way to see
// the split-monitor architecture in action.
//
// Usage:
//
//	remon [-mode native|ghumvee|remon] [-replicas N] [-policy LEVEL]
//	      [-workload file|server|mixed] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"remon/internal/apps"
	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/vnet"
	"remon/internal/workload"
)

func parseLevel(s string) (policy.Level, error) {
	for _, l := range policy.Levels() {
		if strings.EqualFold(l.String(), s) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown policy level %q (want one of BASE_LEVEL, NONSOCKET_RO_LEVEL, NONSOCKET_RW_LEVEL, SOCKET_RO_LEVEL, SOCKET_RW_LEVEL)", s)
}

func parseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "native":
		return core.ModeNative, nil
	case "ghumvee":
		return core.ModeGHUMVEE, nil
	case "remon":
		return core.ModeReMon, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func main() {
	modeFlag := flag.String("mode", "remon", "monitoring mode: native, ghumvee, remon")
	replicas := flag.Int("replicas", 2, "number of diversified replicas")
	policyFlag := flag.String("policy", "SOCKET_RW_LEVEL", "spatial exemption level")
	workloadFlag := flag.String("workload", "mixed", "workload: file, server, mixed")
	trace := flag.Bool("trace", false, "print every system call of every replica")
	flag.Parse()

	mode, err := parseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	level, err := parseLevel(*policyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	net := vnet.New(vnet.GigabitLocal)
	k := vkernel.New(net)
	if *trace {
		k.SetTrace(func(t *vkernel.Thread, c *vkernel.Call) {
			fmt.Printf("  [replica %d tid %d] %s\n", t.Proc.ReplicaIndex, t.TID, c)
		})
	}

	mvee, err := core.New(core.Config{
		Mode: mode, Replicas: *replicas, Policy: level,
		Kernel: k, Partitions: 16,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "remon:", err)
		os.Exit(1)
	}

	var prog libc.Program
	var clientDone chan workload.ClientResult
	switch *workloadFlag {
	case "file":
		prog = fileWorkload
	case "server":
		prog = apps.Server(apps.ServerConfig{
			Name: "demo-httpd", Addr: "demo:80",
			RequestSize: 128, ResponseSize: 4096,
			ComputePerRequest: 10 * model.Microsecond,
			TotalConnections:  4, Style: apps.StyleEpoll,
		})
		clientDone = make(chan workload.ClientResult, 1)
		go func() {
			clientDone <- workload.RunClients(k, workload.ClientConfig{
				Addr: "demo:80", Connections: 4, RequestsPerConn: 10,
				RequestSize: 128, ResponseSize: 4096,
				ThinkTime: 5 * model.Microsecond,
			}, 7)
		}()
	default:
		prog = mixedWorkload
	}

	rep := mvee.Run(prog)
	mvee.Close()
	if clientDone != nil {
		cres := <-clientDone
		fmt.Printf("clients: %d requests completed, %d errors, makespan %v\n",
			cres.Completed, cres.Errors, cres.Duration)
	}
	printReport(rep)
	if rep.Verdict.Diverged {
		os.Exit(1)
	}
}

func fileWorkload(env *libc.Env) {
	fd, errno := env.Open("/tmp/demo.txt", vkernel.OCreat|vkernel.ORdwr, 0o644)
	if errno != 0 {
		return
	}
	for i := 0; i < 100; i++ {
		env.Write(fd, []byte("The quick brown fox jumps over the lazy dog.\n"))
		env.Compute(20 * model.Microsecond)
	}
	env.Lseek(fd, 0, vkernel.SeekSet)
	buf := make([]byte, 4096)
	for {
		n, errno := env.Read(fd, buf)
		if errno != 0 || n == 0 {
			break
		}
	}
	env.Close(fd)
}

func mixedWorkload(env *libc.Env) {
	fd, _ := env.Open("/tmp/mixed.dat", vkernel.OCreat|vkernel.ORdwr, 0o644)
	mu := env.NewMutex()
	total := 0
	var handles []*libc.ThreadHandle
	for w := 0; w < 3; w++ {
		handles = append(handles, env.Spawn(func(we *libc.Env) {
			for i := 0; i < 50; i++ {
				we.Compute(10 * model.Microsecond)
				we.TimeNow()
				we.Write(fd, []byte("worker-record"))
				mu.Lock(we)
				total++
				mu.Unlock(we)
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	env.Close(fd)
}

func printReport(rep *core.Report) {
	fmt.Printf("mode=%v replicas=%d policy=%v\n", rep.Mode, rep.Replicas, rep.Policy)
	fmt.Printf("virtual duration: %v, user syscalls: %d\n", rep.Duration, rep.Syscalls)
	if rep.Verdict.Diverged {
		fmt.Printf("DIVERGENCE: %s (at %s)\n", rep.Verdict.Reason, rep.Verdict.Syscall)
	} else {
		fmt.Println("verdict: replicas behaved equivalently")
	}
	if rep.Mode != core.ModeNative {
		m := rep.Monitor
		fmt.Printf("GHUMVEE: %d lockstep calls (%d master-call, %d all-replica), %d ptrace stops, %d B compared, %d B replicated, %d signals deferred, %d RB resets\n",
			m.MonitoredCalls, m.MasterCalls, m.AllReplicaCalls, m.PtraceStops,
			m.BytesCompared, m.BytesReplicated, m.SignalsDeferred, m.RBResets)
		b := rep.Broker
		fmt.Printf("IK-B: %d intercepted, %d -> IP-MON, %d -> GHUMVEE, %d tokens minted, %d violations\n",
			b.Intercepted, b.RoutedIPMon, b.RoutedMonitor, b.TokensMinted, b.TokenViolations)
		for i, s := range rep.IPMon {
			fmt.Printf("IP-MON[replica %d]: %d dispatched, %d unmonitored, %d policy-forwarded, %d signal-forwarded\n",
				i, s.Dispatched, s.Unmonitored, s.ForwardedPolicy, s.ForwardedSignal)
		}
	}
}

// Webserver: an epoll-based HTTP-style server protected by ReMon, driven
// by concurrent clients over a simulated 2 ms link — the paper's
// "realistic scenario" (§5.2). The same workload is also measured natively
// and under CP-only monitoring so the overhead comparison is visible.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"remon/internal/apps"
	"remon/internal/core"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/vnet"
	"remon/internal/workload"
)

func runOnce(mode core.Mode, replicas int, label string, addr string) model.Duration {
	net := vnet.New(vnet.LowLatency2ms)
	k := vkernel.New(net)

	server := apps.Server(apps.ServerConfig{
		Name: "example-httpd", Addr: addr,
		RequestSize: 128, ResponseSize: 4096,
		ComputePerRequest: 10 * model.Microsecond,
		TotalConnections:  6,
		Style:             apps.StyleEpoll,
	})
	mvee, err := core.New(core.Config{
		Mode: mode, Replicas: replicas, Policy: policy.SocketRWLevel,
		Kernel: k, Partitions: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan *core.Report, 1)
	go func() { done <- mvee.Run(server) }()

	clients := workload.RunClients(k, workload.ClientConfig{
		Addr: addr, Connections: 6, RequestsPerConn: 20,
		RequestSize: 128, ResponseSize: 4096,
		ThinkTime: 10 * model.Microsecond,
	}, 42)
	rep := <-done
	mvee.Close()

	if rep.Verdict.Diverged {
		log.Fatalf("%s diverged: %s", label, rep.Verdict.Reason)
	}
	fmt.Printf("%-28s %3d requests in %v (%d client errors)\n",
		label, clients.Completed, clients.Duration, clients.Errors)
	return clients.Duration
}

func main() {
	fmt.Println("HTTP-style server over a 2 ms link, 6 connections x 20 requests")
	fmt.Println()
	native := runOnce(core.ModeNative, 1, "native", "web-native:80")
	ghumvee := runOnce(core.ModeGHUMVEE, 2, "GHUMVEE only (2 replicas)", "web-ghumvee:80")
	remon := runOnce(core.ModeReMon, 2, "ReMon (2 replicas)", "web-remon:80")
	remon4 := runOnce(core.ModeReMon, 4, "ReMon (4 replicas)", "web-remon4:80")

	fmt.Println()
	fmt.Printf("overhead vs native: GHUMVEE %+.1f%%, ReMon(2) %+.1f%%, ReMon(4) %+.1f%%\n",
		100*(float64(ghumvee)/float64(native)-1),
		100*(float64(remon)/float64(native)-1),
		100*(float64(remon4)/float64(native)-1))
	fmt.Println("(the 2 ms link hides most server-side monitoring cost — §5.2)")
}

// The exporter: Prometheus text-format scrapes and the JSON health
// document served over vnet, so the fleet's own virtual network carries
// its telemetry — a scrape is charged link serialisation and arrival
// stamps exactly like any data-plane request. The protocol is the
// minimal HTTP/1.1 subset a real scraper needs: GET, Content-Length,
// Connection: close.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"remon/internal/model"
	"remon/internal/vnet"
)

// Exporter serves /metrics and /health on a vnet address.
type Exporter struct {
	reg    *Registry
	health HealthSource
	lis    *vnet.Listener
	wg     sync.WaitGroup

	// Self-instrumentation: the exporter is itself a registered
	// subsystem — scrape count and payload-size histogram exercise the
	// direct cell API.
	scrapes    *Counter
	scrapeSize *Histogram
}

// NewExporter binds the exporter to addr on net and starts its accept
// loop. health may be nil (the /health endpoint then reports a bare
// "ok"). Callers must Close.
func NewExporter(net *vnet.Network, addr string, reg *Registry, health HealthSource) (*Exporter, error) {
	lis, err := net.Listen(addr, 64)
	if err != nil {
		return nil, fmt.Errorf("telemetry: binding exporter %s: %w", addr, err)
	}
	e := &Exporter{
		reg:        reg,
		health:     health,
		lis:        lis,
		scrapes:    reg.Counter("remon_telemetry_scrapes_total", "Exporter scrapes served.", nil),
		scrapeSize: reg.Histogram("remon_telemetry_scrape_bytes", "Scrape payload sizes.", nil),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Close unbinds the exporter and waits for in-flight scrapes.
func (e *Exporter) Close() {
	e.lis.Close()
	e.wg.Wait()
}

func (e *Exporter) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, at, err := e.lis.Accept(true)
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.handle(conn, at)
		}()
	}
}

// handle serves one scrape connection: read the request head, route on
// the path, write one response, close.
func (e *Exporter) handle(conn *vnet.Conn, at model.Duration) {
	defer conn.Close()
	head, now, ok := readHead(conn, at)
	if !ok {
		return
	}
	method, path := parseRequestLine(head)
	if method != "GET" {
		writeResponse(conn, now, 405, "text/plain; charset=utf-8", []byte("method not allowed\n"))
		return
	}
	switch trimQuery(path) {
	case "/metrics":
		body := []byte(e.reg.PromText())
		e.scrapes.Inc()
		e.scrapeSize.Observe(uint64(len(body)))
		writeResponse(conn, now, 200, "text/plain; version=0.0.4; charset=utf-8", body)
	case "/health", "/healthz":
		var body []byte
		if e.health != nil {
			body = e.health.Health().JSON()
		} else {
			body = []byte(`{"status":"ok"}`)
		}
		writeResponse(conn, now, 200, "application/json", body)
	default:
		writeResponse(conn, now, 404, "text/plain; charset=utf-8", []byte("not found\n"))
	}
}

// readHead accumulates request bytes until the header terminator. The
// returned Duration is the virtual arrival time of the request's last
// segment, which the response Send is charged from.
func readHead(conn *vnet.Conn, at model.Duration) (string, model.Duration, bool) {
	var head []byte
	now := at
	for {
		seg, arrive, err := conn.RecvSeg(true)
		if err != nil || seg == nil {
			return "", now, false
		}
		if arrive > now {
			now = arrive
		}
		head = append(head, seg...)
		if strings.Contains(string(head), "\r\n\r\n") || strings.Contains(string(head), "\n\n") {
			return string(head), now, true
		}
		if len(head) > 16<<10 {
			return "", now, false // oversized head: drop
		}
	}
}

func parseRequestLine(head string) (method, path string) {
	line := head
	if i := strings.IndexAny(line, "\r\n"); i >= 0 {
		line = line[:i]
	}
	parts := strings.Fields(line)
	if len(parts) < 2 {
		return "", ""
	}
	return parts[0], parts[1]
}

func trimQuery(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

var statusText = map[int]string{
	200: "OK",
	404: "Not Found",
	405: "Method Not Allowed",
}

func writeResponse(conn *vnet.Conn, now model.Duration, code int, ctype string, body []byte) {
	var b strings.Builder
	b.WriteString("HTTP/1.1 ")
	b.WriteString(strconv.Itoa(code))
	b.WriteByte(' ')
	b.WriteString(statusText[code])
	b.WriteString("\r\nContent-Type: ")
	b.WriteString(ctype)
	b.WriteString("\r\nContent-Length: ")
	b.WriteString(strconv.Itoa(len(body)))
	b.WriteString("\r\nConnection: close\r\n\r\n")
	b.Write(body)
	conn.Send([]byte(b.String()), now)
}

// ScrapeResult is one client-side scrape outcome.
type ScrapeResult struct {
	Status int
	Body   []byte
	// Arrived is the virtual time the response's last byte landed.
	Arrived model.Duration
}

// Scrape is the curl-equivalent: connect to the exporter over the vnet
// fabric, issue GET path, parse the status line and body out of the
// response. Virtual time is charged like any client request.
func Scrape(net *vnet.Network, addr, path string, now model.Duration) (ScrapeResult, error) {
	conn, at, err := net.Connect(addr, now)
	if err != nil {
		return ScrapeResult{}, fmt.Errorf("telemetry: scrape connect %s: %w", addr, err)
	}
	defer conn.Close()
	req := "GET " + path + " HTTP/1.1\r\nHost: " + addr + "\r\nConnection: close\r\n\r\n"
	if _, err := conn.Send([]byte(req), at); err != nil {
		return ScrapeResult{}, fmt.Errorf("telemetry: scrape send: %w", err)
	}
	var resp []byte
	arrived := at
	for {
		seg, arrive, err := conn.RecvSeg(true)
		if err != nil {
			return ScrapeResult{}, fmt.Errorf("telemetry: scrape recv: %w", err)
		}
		if seg == nil {
			break // EOF
		}
		if arrive > arrived {
			arrived = arrive
		}
		resp = append(resp, seg...)
		if done, _ := responseComplete(resp); done {
			break
		}
	}
	return parseResponse(resp, arrived)
}

// responseComplete reports whether resp holds a full header block plus
// Content-Length body bytes.
func responseComplete(resp []byte) (bool, int) {
	s := string(resp)
	i := strings.Index(s, "\r\n\r\n")
	if i < 0 {
		return false, 0
	}
	n := contentLength(s[:i])
	return len(resp) >= i+4+n, i + 4
}

func contentLength(head string) int {
	for _, line := range strings.Split(head, "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err == nil {
				return n
			}
		}
	}
	return 0
}

func parseResponse(resp []byte, arrived model.Duration) (ScrapeResult, error) {
	s := string(resp)
	i := strings.Index(s, "\r\n\r\n")
	if i < 0 {
		return ScrapeResult{}, fmt.Errorf("telemetry: malformed scrape response (%d bytes, no header terminator)", len(resp))
	}
	statusLine := s
	if j := strings.Index(s, "\r\n"); j >= 0 {
		statusLine = s[:j]
	}
	parts := strings.Fields(statusLine)
	if len(parts) < 2 {
		return ScrapeResult{}, fmt.Errorf("telemetry: malformed status line %q", statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return ScrapeResult{}, fmt.Errorf("telemetry: malformed status %q", parts[1])
	}
	body := resp[i+4:]
	if n := contentLength(s[:i]); n >= 0 && n <= len(body) {
		body = body[:n]
	}
	return ScrapeResult{Status: code, Body: body, Arrived: arrived}, nil
}

//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// wire is one HTTP/1.1 keep-alive connection driven synchronously by its
// owner. A net/http.Client would spread a request over transport
// goroutines; doing the round trip on the caller's own (locked) thread is
// what lets the harness subtract the generator's and collector's CPU with
// RUSAGE_THREAD.
type wire struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	out  []byte
}

func dialWire(addr string) (*wire, error) {
	w := &wire{addr: addr}
	return w, w.redial()
}

func (w *wire) redial() error {
	w.close()
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	w.conn, w.br = c, bufio.NewReader(c)
	return nil
}

func (w *wire) close() {
	if w.conn != nil {
		_ = w.conn.Close() // nothing buffered to lose: every write is followed by its read
		w.conn = nil
	}
}

// do performs one request and returns the status and the whole body.
// headers are "Name: value" lines.
func (w *wire) do(method, path string, body []byte, headers ...string) (int, []byte, error) {
	if w.conn == nil {
		if err := w.redial(); err != nil {
			return 0, nil, err
		}
	}
	out := append(w.out[:0], method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: bench\r\n"...)
	for _, h := range headers {
		out = append(out, h...)
		out = append(out, "\r\n"...)
	}
	if body != nil {
		out = append(out, "Content-Type: application/json\r\nContent-Length: "...)
		out = strconv.AppendInt(out, int64(len(body)), 10)
		out = append(out, "\r\n"...)
	}
	out = append(out, "\r\n"...)
	out = append(out, body...)
	w.out = out
	if _, err := w.conn.Write(out); err != nil {
		w.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		w.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read above
	if err != nil {
		w.close()
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.Close {
		w.close()
	}
	return resp.StatusCode, data, nil
}

// parseMetrics reads a Prometheus text page into name{labels} → value.
func parseMetrics(page []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

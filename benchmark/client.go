package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// client is the benchmark's own HTTP/1.1 keep-alive client for POST
// /v1/rewrite: one connection, one request in flight, no allocation per
// request. It exists so that client cost — which shares the sandbox's CPUs
// with the server — stays small and constant.
type client struct {
	addr    string
	conn    net.Conn
	br      *bufio.Reader
	payload []byte // request body under construction
	req     []byte // head + body, written with one Write
	body    []byte // response body buffer
}

// reply is one parsed response. Body aliases the client's buffer and is valid
// until the next post.
type reply struct {
	Status int
	Full   bool // served at X-WeTune-Service-Level: full
	Body   []byte
}

const requestHead = "POST /v1/rewrite HTTP/1.1\r\nHost: wetune-bench\r\nContent-Type: application/json\r\nContent-Length: "

// laneHeader carries the client's lane number to the traced run's timing
// middleware.
const laneHeader = "X-Bench-Lane"

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// redial replaces a connection a failed request may have left mid-response.
func (c *client) redial() error {
	c.close()
	fresh, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = fresh.conn, fresh.br
	return nil
}

// setQuery makes {"sql": ..., "app": ...} the pending payload: query m with
// its last literal replaced by lit (lit < 0: unchanged). App names need no
// escaping.
func (c *client) setQuery(m *mutable, lit int64, app string) {
	p := append(c.payload[:0], `{"sql":"`...)
	p = m.appendJSON(p, lit)
	p = append(p, `","app":"`...)
	p = append(p, app...)
	c.payload = append(p, `"}`...)
}

// post sends the pending payload and reads the response. lane < 0 omits the
// lane header.
func (c *client) post(lane int) (reply, error) {
	r := append(c.req[:0], requestHead...)
	r = strconv.AppendInt(r, int64(len(c.payload)), 10)
	if lane >= 0 {
		r = append(r, "\r\n"+laneHeader+": "...)
		r = strconv.AppendInt(r, int64(lane), 10)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, c.payload...)
	c.req = r
	if _, err := c.conn.Write(r); err != nil {
		return reply{}, err
	}
	return c.read()
}

var (
	hdrContentLength = []byte("content-length:")
	hdrServiceLevel  = []byte("x-wetune-service-level:")
	levelFull        = []byte("full")
)

func (c *client) read() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 12 {
		return reply{}, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return reply{}, fmt.Errorf("status line %q: %w", line, err)
	}
	out := reply{Status: status}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return reply{}, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasFoldPrefix(line, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil {
				return reply{}, fmt.Errorf("content-length %q: %w", line, err)
			}
		case hasFoldPrefix(line, hdrServiceLevel):
			out.Full = bytes.Equal(bytes.TrimSpace(line[len(hdrServiceLevel):]), levelFull)
		}
	}
	if length < 0 {
		return reply{}, fmt.Errorf("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length, 2*length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return reply{}, err
	}
	out.Body = c.body
	return out, nil
}

func hasFoldPrefix(line, lowerPrefix []byte) bool {
	return len(line) >= len(lowerPrefix) && bytes.EqualFold(line[:len(lowerPrefix)], lowerPrefix)
}

// Keys the timed loop scans for in response bodies.
var (
	keyCostBefore = []byte(`"cost_before":`)
	keyCostAfter  = []byte(`"cost_after":`)
	keyCachedTrue = []byte(`"cached":true`)
)

// scanNumber reads the number following key (`"name":`) in a JSON body without
// decoding it. The sampled full decode cross-checks what it finds.
func scanNumber(body, key []byte) (float64, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"muaa/internal/broker"
	"muaa/internal/workload"
)

// opKind says what a pre-encoded request asks for and so how its answer is
// checked.
type opKind uint8

const (
	opArrival  opKind = iota // POST /v1/arrivals
	opBatch                  // POST /v1/arrivals:batch
	opTopUp                  // POST /v1/campaigns/{id}/topup
	opPause                  // POST /v1/campaigns/{id}/pause
	opStats                  // GET  /v1/stats
	opCampaign               // GET  /v1/campaigns/{id}
	opRegister               // POST /v1/campaigns
	opEvent                  // POST /v1/events
	opOther                  // healthz, metrics, debug pulls: status only
)

// request is one HTTP request encoded before the timed window. head is the
// request line and headers without the blank line, so a traceparent header
// can be spliced in without re-encoding.
type request struct {
	kind   opKind
	method string
	path   string
	head   []byte
	body   []byte
	// arrivals are the decoded inputs (one for opArrival, the batch for
	// opBatch), kept for the twin and for the capacity check.
	arrivals []broker.Arrival
	// op is the generated operation behind a top-up, pause or read.
	op workload.BrokerOp
}

func post(kind opKind, path string, body []byte) request {
	return request{kind: kind, method: "POST", path: path, body: body,
		head: []byte("POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
			strconv.Itoa(len(body)) + "\r\n")}
}

func getReq(kind opKind, path string) request {
	return request{kind: kind, method: "GET", path: path, head: []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n")}
}

// client is one keep-alive HTTP/1.1 connection. It writes pre-encoded bytes
// and reads the reply with net/http's own response parser, so the generator
// spends its time waiting, not encoding.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 128<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// requestTimeout bounds one round trip; a hung server fails the run instead
// of hanging it.
const requestTimeout = 30 * time.Second

// do sends r (with a traceparent header when non-empty) and returns the
// status and the whole body. The body is only valid until the next call.
func (c *client) do(r *request, traceparent string) (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.bw.Write(r.head)
	if traceparent != "" {
		c.bw.WriteString("Traceparent: ")
		c.bw.WriteString(traceparent)
		c.bw.WriteString("\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(r.body)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// get is a one-off GET on a fresh connection, for scrapes and pulls.
func get(addr, path string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	r := getReq(opOther, path)
	status, body, err := c.do(&r, "")
	return status, append([]byte(nil), body...), err
}

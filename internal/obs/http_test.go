package obs

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestServeDropsUnfinishedHeaders: a client that sends part of its request
// headers and then stalls is disconnected once ReadHeaderTimeout passes,
// instead of holding its connection open forever.
func TestServeDropsUnfinishedHeaders(t *testing.T) {
	t.Parallel()
	addr, closer, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if elapsed := stallHeaders(t, addr); elapsed > ReadHeaderTimeout+2*time.Second {
		t.Fatalf("stalled client dropped after %v, timeout is %v", elapsed, ReadHeaderTimeout)
	}
}

// stallHeaders opens a connection, sends an unfinished request and returns
// how long the server took to close it; it fails the test if the server
// keeps the connection past ReadHeaderTimeout plus a grace period.
func stallHeaders(t *testing.T, addr string) time.Duration {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds the stalled connection after %v", time.Since(start))
	}
	return time.Since(start)
}

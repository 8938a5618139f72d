package lockheld

import "net/http"

// refresh holds the lock across HTTP round trips, each of which waits on
// a remote server.
func (a *agent) refresh(c *http.Client, req *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _ = c.Do(req)                          // want `call to net/http\.Client\.Do \(performs an HTTP request\) while a\.mu is held`
	_, _ = http.Get("http://config.invalid/") // want `call to net/http\.Get \(performs an HTTP request\) while a\.mu is held`
}

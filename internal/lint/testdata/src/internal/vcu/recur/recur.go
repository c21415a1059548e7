// Package recur exercises the fixed-point iteration of the summary
// engine: a self-recursive function and a mutually-recursive pair whose
// interprocedural fact (a closer parameter escapes) must converge inside
// their strongly connected components.
package recur

// Conn is the fixture's closable resource.
type Conn struct{ open bool }

// Close releases the connection.
func (c *Conn) Close() error {
	c.open = false
	return nil
}

// keeper outlives any one call.
type keeper struct{ c *Conn }

// selfStash recurses before it stores its parameter: the escape is in
// its own body, and the fixed point must converge with no cap hit.
func selfStash(k *keeper, c *Conn, n int) {
	if n > 0 {
		selfStash(k, c, n-1)
		return
	}
	k.c = c
}

// mutualA never stores c itself: it escapes only because mutualB, the
// other half of the cycle, may keep it.
func mutualA(k *keeper, c *Conn, n int) {
	if n > 0 {
		mutualB(k, c, n-1)
	}
}

// mutualB keeps c or hands it back to mutualA.
func mutualB(k *keeper, c *Conn, n int) {
	if n == 0 {
		k.c = c
		return
	}
	mutualA(k, c, n-1)
}

package server

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWrongTypeFidelityRegistryDriven is generated from the registry: every
// command declaring a NeedsType is applied to keys of each *other* type and
// must reply Redis's exact WRONGTYPE error — wording included — because
// real clients switch on that first word.
func TestWrongTypeFidelityRegistryDriven(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	if err := c.Set("str-key", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HSet("hash-key", "f", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RPush("list-key", "e"); err != nil {
		t.Fatal(err)
	}
	keyOf := map[byte]string{'s': "str-key", 'h': "hash-key", 'l': "list-key"}
	const want = "WRONGTYPE Operation against a key holding the wrong kind of value"

	probed := 0
	for _, cmd := range Commands() {
		if cmd.NeedsType == 0 {
			continue
		}
		for typ, key := range keyOf {
			if typ == cmd.NeedsType {
				continue
			}
			nargs := cmd.Arity
			if nargs < 0 {
				nargs = -nargs
			}
			args := make([]string, nargs)
			args[0] = strings.ToLower(cmd.Name)
			args[1] = key
			for i := 2; i < nargs; i++ {
				args[i] = "0"
			}
			rp, err := c.Do(args...)
			if err != nil {
				t.Fatalf("%s vs %s key: %v", cmd.Name, keyOf[typ], err)
			}
			if rp.Kind != '-' || rp.Str != want {
				t.Fatalf("%s against %s replied %q, want %q", cmd.Name, key, rp.Str, want)
			}
			probed++
		}
	}
	// 5 string commands × 2 wrong types + 12 object commands × 2.
	if probed < 34 {
		t.Fatalf("only %d WRONGTYPE probes generated from the registry — NeedsType declarations shrank?", probed)
	}

	// The probes left every key intact.
	for typ, key := range keyOf {
		wantType := map[byte]string{'s': "string", 'h': "hash", 'l': "list"}[typ]
		if got, err := c.Type(key); err != nil || got != wantType {
			t.Fatalf("TYPE %s = (%q,%v) after probes", key, got, err)
		}
	}
}

func TestHashCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if n, err := c.HSet("h", "f1", "v1", "f2", "v2"); err != nil || n != 2 {
		t.Fatalf("HSET = (%d,%v)", n, err)
	}
	if n, err := c.HSet("h", "f1", "v1b", "f3", "v3"); err != nil || n != 1 {
		t.Fatalf("HSET mixed = (%d,%v)", n, err)
	}
	if v, ok, err := c.HGet("h", "f1"); err != nil || !ok || v != "v1b" {
		t.Fatalf("HGET = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := c.HGet("h", "nope"); ok {
		t.Fatal("missing field found")
	}
	if _, ok, _ := c.HGet("missing", "f"); ok {
		t.Fatal("missing key found")
	}
	if ok, _ := c.HExists("h", "f2"); !ok {
		t.Fatal("HEXISTS f2 = 0")
	}
	if ok, _ := c.HExists("h", "f9"); ok {
		t.Fatal("HEXISTS f9 = 1")
	}
	if n, _ := c.HLen("h"); n != 3 {
		t.Fatalf("HLEN = %d", n)
	}
	m, err := c.HGetAll("h")
	if err != nil || len(m) != 3 || m["f1"] != "v1b" || m["f2"] != "v2" || m["f3"] != "v3" {
		t.Fatalf("HGETALL = %v, %v", m, err)
	}
	if m, err := c.HGetAll("missing"); err != nil || len(m) != 0 {
		t.Fatalf("HGETALL missing = %v, %v", m, err)
	}
	if typ, _ := c.Type("h"); typ != "hash" {
		t.Fatalf("TYPE = %q", typ)
	}
	// Odd HSET tail is an arity error at the handler level.
	if rp, _ := c.Do("HSET", "h", "f1", "v1", "dangling"); rp.Kind != '-' ||
		rp.Str != "ERR wrong number of arguments for 'hset' command" {
		t.Fatalf("odd HSET = %+v", rp)
	}

	if n, _ := c.HDel("h", "f1", "f9"); n != 1 {
		t.Fatalf("HDEL = %d", n)
	}
	// Deleting the last fields removes the key entirely.
	if n, _ := c.HDel("h", "f2", "f3"); n != 2 {
		t.Fatal("HDEL rest failed")
	}
	if typ, _ := c.Type("h"); typ != "none" {
		t.Fatalf("TYPE after emptying = %q", typ)
	}
	if n, _ := c.DBSize(); n != 0 {
		t.Fatalf("DBSIZE = %d", n)
	}
}

func TestListCommands(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	if n, err := c.RPush("l", "b", "c"); err != nil || n != 2 {
		t.Fatalf("RPUSH = (%d,%v)", n, err)
	}
	if n, err := c.LPush("l", "a"); err != nil || n != 3 {
		t.Fatalf("LPUSH = (%d,%v)", n, err)
	}
	if n, _ := c.LLen("l"); n != 3 {
		t.Fatalf("LLEN = %d", n)
	}
	if vals, err := c.LRange("l", 0, -1); err != nil || strings.Join(vals, ",") != "a,b,c" {
		t.Fatalf("LRANGE = %v, %v", vals, err)
	}
	if vals, _ := c.LRange("l", -2, -1); strings.Join(vals, ",") != "b,c" {
		t.Fatalf("negative LRANGE = %v", vals)
	}
	if vals, _ := c.LRange("missing", 0, -1); len(vals) != 0 {
		t.Fatalf("LRANGE missing = %v", vals)
	}
	if rp, _ := c.Do("LRANGE", "l", "zero", "-1"); rp.Kind != '-' ||
		rp.Str != "ERR value is not an integer or out of range" {
		t.Fatalf("bad LRANGE index = %+v", rp)
	}
	if typ, _ := c.Type("l"); typ != "list" {
		t.Fatalf("TYPE = %q", typ)
	}

	if v, ok, _ := c.LPop("l"); !ok || v != "a" {
		t.Fatalf("LPOP = (%q,%v)", v, ok)
	}
	if v, ok, _ := c.RPop("l"); !ok || v != "c" {
		t.Fatalf("RPOP = (%q,%v)", v, ok)
	}
	if v, ok, _ := c.LPop("l"); !ok || v != "b" {
		t.Fatalf("last LPOP = (%q,%v)", v, ok)
	}
	if typ, _ := c.Type("l"); typ != "none" {
		t.Fatalf("TYPE after draining = %q", typ)
	}
	if _, ok, _ := c.LPop("l"); ok {
		t.Fatal("LPOP on missing key returned a value")
	}
}

func TestObjectKeyspaceInterplay(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	c.HSet("h", "f", "v")
	c.RPush("l", "e")
	c.Set("s", "v")

	// MGET replies nil for object keys instead of erroring (Redis's one
	// WRONGTYPE exception).
	rp, err := c.Do("MGET", "s", "h", "l", "missing")
	if err != nil || rp.Kind != '*' || len(rp.Elems) != 4 {
		t.Fatalf("MGET = %+v, %v", rp, err)
	}
	if string(rp.Elems[0].Bulk) != "v" || !rp.Elems[1].Nil || !rp.Elems[2].Nil || !rp.Elems[3].Nil {
		t.Fatalf("MGET elems = %+v", rp.Elems)
	}

	// SETNX declines on any existing type without erroring.
	if ok, err := c.SetNX("h", "x"); err != nil || ok {
		t.Fatalf("SETNX on hash = (%v,%v)", ok, err)
	}
	// EXISTS and DEL are type-agnostic.
	if rp, _ := c.Do("EXISTS", "s", "h", "l"); rp.Int != 3 {
		t.Fatalf("EXISTS = %d", rp.Int)
	}
	if rp, _ := c.Do("DEL", "h", "l"); rp.Int != 2 {
		t.Fatalf("DEL = %d", rp.Int)
	}
	// SET overwrites an object wholesale.
	c.HSet("h2", "f", "v")
	if err := c.Set("h2", "plain"); err != nil {
		t.Fatal(err)
	}
	if typ, _ := c.Type("h2"); typ != "string" {
		t.Fatalf("TYPE after SET-over-hash = %q", typ)
	}

	// EXPIRE applies to objects; an expired object reads as gone.
	c.RPush("tl", "x")
	if ok, _ := c.PExpire("tl", 30); !ok {
		t.Fatal("PEXPIRE on list failed")
	}
	if ttl, _ := c.PTTL("tl"); ttl <= 0 {
		t.Fatalf("PTTL = %d", ttl)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		typ, _ := c.Type("tl")
		if typ == "none" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("list never expired (TYPE = %q)", typ)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n, _ := c.LLen("tl"); n != 0 {
		t.Fatalf("expired LLEN = %d", n)
	}

	// INFO reports the per-type census.
	rp, _ = c.Do("INFO", "keyspace")
	info := string(rp.Bulk)
	if !strings.Contains(info, "keys_string:") || !strings.Contains(info, "keys_hash:") || !strings.Contains(info, "keys_list:") {
		t.Fatalf("INFO keyspace lacks type census:\n%s", info)
	}
}

// TestObjectTxn: object commands queue, validate, and execute inside
// MULTI/EXEC like every registry command — including a WRONGTYPE failure
// mid-transaction that (per Redis) does not abort the rest.
func TestObjectTxn(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)

	replies, err := c.Txn(
		[]string{"HSET", "th", "f1", "v1", "f2", "v2"},
		[]string{"LPUSH", "tl", "b"},
		[]string{"LPUSH", "tl", "a"},
		[]string{"RPUSH", "tl", "c"},
		[]string{"HDEL", "th", "f2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 5 || replies[0].Int != 2 || replies[3].Int != 3 || replies[4].Int != 1 {
		t.Fatalf("txn replies = %+v", replies)
	}
	if vals, _ := c.LRange("tl", 0, -1); strings.Join(vals, ",") != "a,b,c" {
		t.Fatalf("post-txn list = %v", vals)
	}
	if n, _ := c.HLen("th"); n != 1 {
		t.Fatalf("post-txn HLEN = %d", n)
	}

	// A runtime WRONGTYPE inside EXEC fails that element only.
	replies, err = c.Txn(
		[]string{"HSET", "tl", "f", "v"}, // tl is a list: WRONGTYPE at run time
		[]string{"SET", "tk", "v"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("txn replies = %+v", replies)
	}
	if replies[0].Kind != '-' || !strings.HasPrefix(replies[0].Str, "WRONGTYPE ") {
		t.Fatalf("in-txn WRONGTYPE = %+v", replies[0])
	}
	if v, ok, _ := c.Get("tk"); !ok || v != "v" {
		t.Fatalf("command after in-txn error = (%q,%v)", v, ok)
	}

	// Arity failures on object commands poison the queue (EXECABORT).
	if _, err := c.Txn([]string{"HSET", "only-key"}, []string{"SET", "nope", "v"}); err == nil ||
		!strings.Contains(err.Error(), "wrong number of arguments") {
		t.Fatalf("bad-arity txn error = %v", err)
	}
	if _, ok, _ := c.Get("nope"); ok {
		t.Fatal("aborted transaction executed")
	}
}

// TestObjectCommandStats: the stats layer attributes object-command
// calls and their WRONGTYPE errors like any registry command.
func TestObjectCommandStats(t *testing.T) {
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	for i := 0; i < 4; i++ {
		if _, err := c.HSet("sh", fmt.Sprintf("f%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	c.Do("LPUSH", "sh", "boom") // WRONGTYPE, attributed to LPUSH
	rp, err := c.Do("INFO", "commandstats")
	if err != nil {
		t.Fatal(err)
	}
	stats := string(rp.Bulk)
	if !strings.Contains(stats, "cmdstat_hset:calls=4,") {
		t.Fatalf("missing hset stats:\n%s", stats)
	}
	for _, line := range strings.Split(stats, "\r\n") {
		if strings.HasPrefix(line, "cmdstat_lpush:") && !strings.HasSuffix(line, "errors=1") {
			t.Fatalf("lpush line = %q, want errors=1", line)
		}
	}
}

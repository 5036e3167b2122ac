package server

import (
	"slices"
	"strings"
	"testing"
)

// writeSample is a write command's sample: setup runs before it, and cmd must
// not answer an error.
type writeSample struct {
	setup [][]string
	cmd   []string
	// rewrite, when non-empty, is the command name the replication feed
	// entry must carry instead of the one sent.
	rewrite string
}

var writeSamples = map[string]writeSample{
	"SET":       {cmd: []string{"SET", "pw:set", "v"}},
	"SETNX":     {cmd: []string{"SETNX", "pw:setnx", "v"}},
	"SETEX":     {cmd: []string{"SETEX", "pw:setex", "100", "v"}, rewrite: "PSETEXAT"},
	"PSETEX":    {cmd: []string{"PSETEX", "pw:psetex", "100000", "v"}, rewrite: "PSETEXAT"},
	"APPEND":    {setup: [][]string{{"SET", "pw:append", "v"}}, cmd: []string{"APPEND", "pw:append", "w"}},
	"GETSET":    {setup: [][]string{{"SET", "pw:getset", "v"}}, cmd: []string{"GETSET", "pw:getset", "w"}},
	"GETDEL":    {setup: [][]string{{"SET", "pw:getdel", "v"}}, cmd: []string{"GETDEL", "pw:getdel"}},
	"INCR":      {setup: [][]string{{"SET", "pw:incr", "41"}}, cmd: []string{"INCR", "pw:incr"}},
	"MSET":      {cmd: []string{"MSET", "pw:mset1", "v", "pw:mset2", "v"}},
	"DEL":       {setup: [][]string{{"SET", "pw:del", "v"}}, cmd: []string{"DEL", "pw:del"}},
	"FLUSHALL":  {setup: [][]string{{"SET", "pw:flushall", "v"}}, cmd: []string{"FLUSHALL"}},
	"EXPIRE":    {setup: [][]string{{"SET", "pw:expire", "v"}}, cmd: []string{"EXPIRE", "pw:expire", "100"}, rewrite: "PEXPIREAT"},
	"PEXPIRE":   {setup: [][]string{{"SET", "pw:pexpire", "v"}}, cmd: []string{"PEXPIRE", "pw:pexpire", "100000"}, rewrite: "PEXPIREAT"},
	"PERSIST":   {setup: [][]string{{"SET", "pw:persist", "v"}, {"EXPIRE", "pw:persist", "100"}}, cmd: []string{"PERSIST", "pw:persist"}},
	"PEXPIREAT": {setup: [][]string{{"SET", "pw:pexpireat", "v"}}, cmd: []string{"PEXPIREAT", "pw:pexpireat", "99999999999999"}},
	"PSETEXAT":  {cmd: []string{"PSETEXAT", "pw:psetexat", "99999999999999", "v"}},
	"HSET":      {cmd: []string{"HSET", "pw:hset", "f", "v"}},
	"HDEL":      {setup: [][]string{{"HSET", "pw:hdel", "f", "v"}}, cmd: []string{"HDEL", "pw:hdel", "f"}},
	"LPUSH":     {cmd: []string{"LPUSH", "pw:lpush", "v"}},
	"RPUSH":     {cmd: []string{"RPUSH", "pw:rpush", "v"}},
	"LPOP":      {setup: [][]string{{"RPUSH", "pw:lpop", "a", "b", "c"}}, cmd: []string{"LPOP", "pw:lpop"}},
	"RPOP":      {setup: [][]string{{"RPUSH", "pw:rpop", "a", "b", "c"}}, cmd: []string{"RPOP", "pw:rpop"}},
}

// writeCommands is every FlagWrite command of the registry. The sample table
// is completeness-checked in both directions, so adding a write command
// without a sample (or a sample for a command that lost FlagWrite) fails
// here, not in review — a write command is tested by being registered.
func writeCommands(t *testing.T) []*Command {
	t.Helper()
	var cmds []*Command
	for _, cmd := range Commands() {
		if cmd.Flags&FlagWrite != 0 {
			cmds = append(cmds, cmd)
			if _, ok := writeSamples[cmd.Name]; !ok {
				t.Errorf("write command %s has no sample: add one to writeSamples", cmd.Name)
			}
		}
	}
	for name := range writeSamples {
		if !slices.ContainsFunc(cmds, func(c *Command) bool { return c.Name == name }) {
			t.Errorf("sample %s is not a FlagWrite command in the registry: drop or fix it", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return cmds
}

// TestEveryWriteCommandPersists: every write command must, on a successful
// invocation, drive at least one cache-line flush AND one fence on the heap's
// Region — the dynamic counterpart of the persistorder analyzer, and the
// structural guarantee behind "an acknowledged write is durable".
func TestEveryWriteCommandPersists(t *testing.T) {
	cmds := writeCommands(t)
	ts := startServer(t, Config{}, 0)
	c := dial(t, ts)
	region := ts.heap.Region()

	for _, cmd := range cmds {
		s := writeSamples[cmd.Name]
		for _, pre := range s.setup {
			if rp, err := c.Do(pre...); err != nil || rp.Kind == '-' {
				t.Fatalf("%s setup %v: err=%v reply=%+v", cmd.Name, pre, err, rp)
			}
		}
		before := region.Stats()
		rp, err := c.Do(s.cmd...)
		if err != nil {
			t.Fatalf("%s: %v", cmd.Name, err)
		}
		if rp.Kind == '-' {
			t.Fatalf("%s replied error %q: sample must be a successful write", cmd.Name, rp.Str)
		}
		after := region.Stats()
		if after.Flushes == before.Flushes {
			t.Errorf("%s (%s): no Region flush during a successful write — an acknowledged write must be written back",
				cmd.Name, strings.Join(s.cmd, " "))
		}
		if after.Fences == before.Fences {
			t.Errorf("%s (%s): no Region fence during a successful write — the write-back is unordered",
				cmd.Name, strings.Join(s.cmd, " "))
		}
	}
}

// TestEveryWriteCommandSurvivesEveryStore crashes every write command's sample
// at every store it makes (crashsweep_test.go).
func TestEveryWriteCommandSurvivesEveryStore(t *testing.T) {
	for _, cmd := range writeCommands(t) {
		s := writeSamples[cmd.Name]
		t.Run(cmd.Name, func(t *testing.T) {
			t.Parallel()
			sweepScript(t, s.setup, cmds([][]string{s.cmd}))
		})
	}
}

package server

import (
	"strconv"
	"strings"
)

// This file is the wire surface of the observability layer (internal/obs):
// SLOWLOG over the server's slow-command ring and LATENCY over its named
// event timeline, both Redis-shaped. The data structures live in obs; these
// handlers only translate between RESP and snapshots.

// subcommandOf case-folds args[1] with the same hostile-length guard the
// COMMAND handler uses: a resp.MaxBulkLen subcommand must miss cheaply, not pay
// a megabytes-sized ToUpper copy.
func subcommandOf(args [][]byte) string {
	const maxSubcommandLen = 16
	if len(args) < 2 || len(args[1]) > maxSubcommandLen {
		return ""
	}
	return strings.ToUpper(string(args[1]))
}

// cmdSlowlog implements SLOWLOG GET [count] | RESET | LEN. Each GET entry
// is Redis's classic 4-field shape: [id, unix-timestamp, duration-usec,
// argument array (truncated at record time)].
func cmdSlowlog(ctx *Ctx) {
	switch subcommandOf(ctx.args) {
	case "GET":
		n := -1
		if len(ctx.args) == 3 {
			v, err := strconv.Atoi(string(ctx.args[2]))
			if err != nil {
				ctx.w.errorf("value is not an integer or out of range")
				return
			}
			n = v
		} else if len(ctx.args) != 2 {
			ctx.w.errorf("wrong number of arguments for 'slowlog|get' command")
			return
		}
		entries := ctx.s.slow.Get(n)
		ctx.w.arrayHeader(len(entries))
		for _, e := range entries {
			ctx.w.arrayHeader(4)
			ctx.w.integer(e.ID)
			ctx.w.integer(e.Unix)
			ctx.w.integer(int64(e.Dur) / 1e3)
			ctx.w.arrayHeader(len(e.Args))
			for _, a := range e.Args {
				ctx.w.bulk([]byte(a))
			}
		}
	case "RESET":
		if len(ctx.args) != 2 {
			ctx.w.errorf("wrong number of arguments for 'slowlog|reset' command")
			return
		}
		ctx.s.slow.Reset()
		ctx.w.simple("OK")
	case "LEN":
		if len(ctx.args) != 2 {
			ctx.w.errorf("wrong number of arguments for 'slowlog|len' command")
			return
		}
		ctx.w.integer(int64(ctx.s.slow.Len()))
	default:
		ctx.w.errorf("unknown subcommand '%s' for 'slowlog'", errorEcho(ctx.args[1]))
	}
}

// cmdLatency implements LATENCY LATEST | HISTORY <event> | RESET
// [event...]. Durations are reported in milliseconds, like Redis's latency
// monitor: LATEST rows are [name, last-sample unix, latest-ms, max-ms];
// HISTORY rows are [unix, ms] pairs, oldest first.
func cmdLatency(ctx *Ctx) {
	switch subcommandOf(ctx.args) {
	case "LATEST":
		if len(ctx.args) != 2 {
			ctx.w.errorf("wrong number of arguments for 'latency|latest' command")
			return
		}
		rows := ctx.s.events.Latest()
		ctx.w.arrayHeader(len(rows))
		for _, r := range rows {
			ctx.w.arrayHeader(4)
			ctx.w.bulk([]byte(r.Name))
			ctx.w.integer(r.Unix)
			ctx.w.integer(int64(r.Latest) / 1e6)
			ctx.w.integer(int64(r.Max) / 1e6)
		}
	case "HISTORY":
		if len(ctx.args) != 3 {
			ctx.w.errorf("wrong number of arguments for 'latency|history' command")
			return
		}
		samples := ctx.s.events.History(string(ctx.args[2]))
		ctx.w.arrayHeader(len(samples))
		for _, smp := range samples {
			ctx.w.arrayHeader(2)
			ctx.w.integer(smp.Unix)
			ctx.w.integer(int64(smp.Dur) / 1e6)
		}
	case "RESET":
		names := make([]string, 0, len(ctx.args)-2)
		for _, a := range ctx.args[2:] {
			names = append(names, string(a))
		}
		ctx.w.integer(int64(ctx.s.events.Reset(names...)))
	default:
		ctx.w.errorf("unknown subcommand '%s' for 'latency'", errorEcho(ctx.args[1]))
	}
}

//! Chrome trace-event JSON export of the event timeline.
//!
//! Produces the *array-of-events* form of the [Trace Event Format] that
//! `chrome://tracing` and [Perfetto] load directly: one timeline track
//! per recorded thread (named via `M` thread-name metadata), `B`/`E`
//! duration events for pipeline phases, `X` complete events for matched
//! conditional-tree recursions, `i` instants for scheduler claims/steals,
//! arena activity, recovery rungs, and reader buffer swaps, plus `C`
//! counter tracks replayed from the [`MemSampler`](crate::MemSampler)
//! time series. Timestamps are microseconds (fractional), as the format
//! requires.
//!
//! Recursion `X` events are reconstructed by replaying each track's
//! enter/exit stack. A ring that overflowed may have lost enters or
//! exits; unmatched events are discarded rather than emitted as
//! ill-nested slices, so the export stays loadable no matter how much
//! was dropped.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::events::{EventKind, TrackDump};
use crate::json::Json;
use crate::sampler::Sample;

/// All events share one synthetic process.
const PID: u64 = 1;
/// Counter tracks live on a pseudo-thread below every real track.
const COUNTER_TID: u64 = 0;

fn base(name: &str, cat: &str, ph: &str, tid: u64, ts_us: f64) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("cat".into(), Json::str(cat)),
        ("ph".into(), Json::str(ph)),
        ("pid".into(), Json::u64(PID)),
        ("tid".into(), Json::u64(tid)),
        ("ts".into(), Json::Num(ts_us)),
    ]
}

fn us(t_nanos: u64) -> f64 {
    t_nanos as f64 / 1000.0
}

fn instant(name: &str, cat: &str, tid: u64, ts_us: f64, args: Vec<(String, Json)>) -> Json {
    let mut fields = base(name, cat, "i", tid, ts_us);
    // Thread scope: the instant belongs to this track, not the process.
    fields.push(("s".into(), Json::str("t")));
    if !args.is_empty() {
        fields.push(("args".into(), Json::Obj(args)));
    }
    Json::Obj(fields)
}

/// Serialises drained tracks and the memory time series as one Chrome
/// trace document (a JSON array of event objects).
pub fn chrome_trace(tracks: &[TrackDump], samples: &[Sample]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    for track in tracks {
        // Name the track so the viewer shows "worker-3" instead of a tid.
        out.push(Json::Obj(vec![
            ("name".into(), Json::str("thread_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::u64(PID)),
            ("tid".into(), Json::u64(track.tid as u64)),
            ("args".into(), Json::Obj(vec![("name".into(), Json::str(track.name.clone()))])),
        ]));
        emit_track(track, &mut out);
    }
    for sample in samples {
        let ts = sample.at_ms as f64 * 1000.0;
        for (name, value) in [
            ("mem.current_bytes", sample.mem_current),
            ("mem.peak_bytes", sample.mem_peak),
            ("arena.used_bytes", sample.arena_used),
            ("arena.footprint_bytes", sample.arena_footprint),
        ] {
            let mut fields = base(name, "memory", "C", COUNTER_TID, ts);
            fields.push(("args".into(), Json::Obj(vec![("bytes".into(), Json::u64(value))])));
            out.push(Json::Obj(fields));
        }
    }
    Json::Arr(out)
}

struct OpenRec {
    item: u32,
    depth: u16,
    pattern_base: u64,
    entered_nanos: u64,
}

fn emit_track(track: &TrackDump, out: &mut Vec<Json>) {
    let tid = track.tid as u64;
    let mut rec_stack: Vec<OpenRec> = Vec::new();
    for event in &track.events {
        let ts = us(event.t_nanos);
        match event.kind {
            EventKind::PhaseBegin(phase) => {
                out.push(Json::Obj(base(phase.name(), "phase", "B", tid, ts)));
            }
            EventKind::PhaseEnd(phase) => {
                out.push(Json::Obj(base(phase.name(), "phase", "E", tid, ts)));
            }
            EventKind::TaskClaim { item, cost, stolen } => {
                out.push(instant(
                    if stolen { "steal" } else { "claim" },
                    "sched",
                    tid,
                    ts,
                    vec![
                        ("item".into(), Json::u64(item as u64)),
                        ("cost_bytes".into(), Json::u64(cost)),
                    ],
                ));
            }
            EventKind::RecEnter { item, depth, pattern_base } => {
                rec_stack.push(OpenRec { item, depth, pattern_base, entered_nanos: event.t_nanos });
            }
            EventKind::RecExit { item } => {
                // Exits arrive LIFO on a lossless track; a mismatch means
                // the ring dropped events. Resynchronise on the nearest
                // matching enter and discard anything opened above it.
                let Some(pos) = rec_stack.iter().rposition(|r| r.item == item) else {
                    continue;
                };
                rec_stack.truncate(pos + 1);
                let open = rec_stack.pop().expect("rposition found an entry");
                let mut fields =
                    base(&format!("i{item}"), "mine", "X", tid, us(open.entered_nanos));
                fields.push((
                    "dur".into(),
                    Json::Num(us(event.t_nanos.saturating_sub(open.entered_nanos))),
                ));
                fields.push((
                    "args".into(),
                    Json::Obj(vec![
                        ("depth".into(), Json::u64(open.depth as u64)),
                        ("pattern_base".into(), Json::u64(open.pattern_base)),
                    ]),
                ));
                out.push(Json::Obj(fields));
            }
            EventKind::ArenaPressure { requested } => {
                out.push(instant(
                    "arena pressure",
                    "arena",
                    tid,
                    ts,
                    vec![("requested_bytes".into(), Json::u64(requested))],
                ));
            }
            EventKind::ArenaReset => {
                out.push(instant("arena reset", "arena", tid, ts, vec![]));
            }
            EventKind::RecoveryRung(rung) => {
                out.push(instant(&format!("rung {}", rung.name()), "recover", tid, ts, vec![]));
            }
            EventKind::BufferSwap { rows } => {
                out.push(instant(
                    "buffer swap",
                    "io",
                    tid,
                    ts,
                    vec![("rows".into(), Json::u64(rows as u64))],
                ));
            }
            EventKind::SpillIo { bytes, write } => {
                out.push(instant(
                    if write { "spill write" } else { "spill read" },
                    "io",
                    tid,
                    ts,
                    vec![("bytes".into(), Json::u64(bytes))],
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use crate::json;
    use crate::span::Phase;

    fn track(name: &str, tid: u32, events: Vec<Event>) -> TrackDump {
        let recorded = events.len() as u64;
        TrackDump { name: name.into(), tid, events, recorded, dropped: 0 }
    }

    fn at(t_nanos: u64, kind: EventKind) -> Event {
        Event { t_nanos, kind }
    }

    #[test]
    fn export_is_valid_json_with_named_tracks_and_nested_slices() {
        let worker = track(
            "worker-0",
            2,
            vec![
                at(1_000, EventKind::PhaseBegin(Phase::Mine)),
                at(2_000, EventKind::TaskClaim { item: 5, cost: 64, stolen: false }),
                at(3_000, EventKind::RecEnter { item: 5, depth: 0, pattern_base: 9 }),
                at(4_000, EventKind::RecEnter { item: 2, depth: 1, pattern_base: 3 }),
                at(5_000, EventKind::RecExit { item: 2 }),
                at(7_000, EventKind::RecExit { item: 5 }),
                at(8_000, EventKind::TaskClaim { item: 1, cost: 8, stolen: true }),
                at(9_000, EventKind::PhaseEnd(Phase::Mine)),
            ],
        );
        let samples = vec![Sample {
            at_ms: 1,
            mem_current: 10,
            mem_peak: 20,
            arena_used: 5,
            arena_footprint: 8,
        }];
        let text = chrome_trace(&[worker], &samples).to_pretty();
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.as_arr().expect("array-of-events form");

        let meta = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .expect("thread_name metadata");
        assert_eq!(
            meta.get("args").and_then(|a| a.get("name")).and_then(Json::as_str),
            Some("worker-0")
        );

        let slices: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), 2, "both matched recursions become X slices");
        let outer = slices
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("i5"))
            .expect("outer slice");
        assert_eq!(outer.get("ts").and_then(Json::as_f64), Some(3.0));
        assert_eq!(outer.get("dur").and_then(Json::as_f64), Some(4.0));

        let steal = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steal"))
            .expect("steal instant");
        assert_eq!(steal.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(steal.get("s").and_then(Json::as_str), Some("t"));

        let counters: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).collect();
        assert_eq!(counters.len(), 4, "one counter event per sampled series");
    }

    #[test]
    fn unmatched_recursion_events_are_discarded() {
        let worker = track(
            "worker-1",
            3,
            vec![
                // Exit whose enter was dropped, then an enter that never
                // exits: neither may produce a slice.
                at(1_000, EventKind::RecExit { item: 9 }),
                at(2_000, EventKind::RecEnter { item: 4, depth: 0, pattern_base: 1 }),
            ],
        );
        let doc = json::parse(&chrome_trace(&[worker], &[]).to_compact()).unwrap();
        assert!(
            doc.as_arr().unwrap().iter().all(|e| e.get("ph").and_then(Json::as_str) != Some("X")),
            "unmatched events must not become slices"
        );
    }
}

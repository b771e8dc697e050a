//! Per-op quick look: a fixed-width text Gantt chart and per-core op
//! totals, derived from the [`ObsEvent::Op`] records of a recorded run
//! — the stdout view of the `trace` binary. Every other event kind is
//! ignored.

use crate::event::{ObsEvent, OpKind};
use scc_hal::{CoreId, Time};

/// Per-core aggregate of a run's ops.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub per_core: Vec<CoreSummary>,
}

#[derive(Clone, Debug, Default)]
pub struct CoreSummary {
    pub ops: usize,
    pub lines: usize,
    pub busy: Time,
    pub polling: Time,
}

/// `(core, kind, lines, start, end)` of every op, in recording order.
fn ops(events: &[ObsEvent]) -> impl Iterator<Item = (CoreId, OpKind, usize, Time, Time)> + '_ {
    events.iter().filter_map(|e| match *e {
        ObsEvent::Op { core, kind, lines, start, end, .. } => Some((core, kind, lines, start, end)),
        _ => None,
    })
}

/// Aggregate the ops of `events` into per-core totals.
pub fn summarize(events: &[ObsEvent], num_cores: usize) -> TraceSummary {
    let mut per_core = vec![CoreSummary::default(); num_cores];
    for (core, kind, lines, start, end) in ops(events) {
        let s = &mut per_core[core.index()];
        s.ops += 1;
        s.lines += lines;
        s.busy += end - start;
        if kind == OpKind::FlagRead {
            s.polling += end - start;
        }
    }
    TraceSummary { per_core }
}

/// The glyph legend, generated from [`OpKind::ALL`] so it cannot drift
/// from the renderer when op kinds are added (`FlagRead` renders as
/// idle and is left out).
fn legend() -> String {
    let mut parts = Vec::new();
    for k in OpKind::ALL {
        if k.glyph() != b'.' {
            parts.push(format!("{}={}", k.glyph() as char, k.short()));
        }
    }
    parts.join(", ")
}

/// Render a fixed-width text Gantt chart of the ops in `events`: one
/// row per core, `width` character cells spanning `[0, horizon]`, each
/// cell showing the op that was active (last-writer-wins within a
/// cell).
///
/// A run whose ops are only polls (or only zero-length ops) renders as
/// all-idle rows, not as "(empty trace)": the run *did* something — it
/// waited — and the timeline should say so.
pub fn render_gantt(events: &[ObsEvent], num_cores: usize, width: usize) -> String {
    assert!(width >= 10);
    let Some(horizon) = ops(events).map(|(.., end)| end).max() else {
        return String::from("(empty trace)\n");
    };
    let mut rows = vec![vec![b'.'; width]; num_cores];
    for (core, kind, _, start, end) in ops(events) {
        let glyph = kind.glyph();
        if glyph == b'.' || horizon == Time::ZERO {
            continue;
        }
        // Cell index of an instant: floor(t * width / horizon), so an
        // op ending exactly at the horizon maps to cell `width` — an
        // exclusive bound that must be clamped before indexing. The
        // start is clamped too (`a <= width - 1`), and every op paints
        // at least the cell it starts in.
        let cell = |x: Time| (x.as_ps() as u128 * width as u128 / horizon.as_ps() as u128) as usize;
        let a = cell(start).min(width - 1);
        let b = cell(end).max(a + 1).min(width);
        for c in &mut rows[core.index()][a..b] {
            *c = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("time 0 .. {horizon}  ({})\n", legend()));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("C{i:<2} |{}|\n", String::from_utf8_lossy(row)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(core: u8, kind: OpKind, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Op {
            core: CoreId(core),
            kind,
            lines: 1,
            start: Time::from_ns(start),
            end: Time::from_ns(end),
            msg: None,
        }
    }

    #[test]
    fn summary_totals() {
        let events = vec![
            t(0, OpKind::PutFromMem, 0, 100),
            t(0, OpKind::FlagPut, 100, 120),
            t(1, OpKind::FlagRead, 0, 50),
            t(1, OpKind::GetToMpb, 50, 200),
        ];
        let s = summarize(&events, 2);
        assert_eq!(s.per_core[0].ops, 2);
        assert_eq!(s.per_core[0].busy, Time::from_ns(120));
        assert_eq!(s.per_core[0].polling, Time::ZERO);
        assert_eq!(s.per_core[1].polling, Time::from_ns(50));
    }

    #[test]
    fn gantt_renders_rows_and_glyphs() {
        let events = vec![t(0, OpKind::PutFromMem, 0, 500), t(1, OpKind::GetToMpb, 500, 1000)];
        let g = render_gantt(&events, 2, 20);
        assert!(g.contains('P'), "{g}");
        assert!(g.contains('g'), "{g}");
        // Core 0 is busy in the first half only.
        let c0 = g.lines().find(|l| l.starts_with("C0")).unwrap();
        let cells = &c0[c0.find('|').unwrap() + 1..c0.rfind('|').unwrap()];
        assert_eq!(cells.len(), 20, "{g}");
        assert!(cells[..10].contains('P') && !cells[10..].contains('P'), "{g}");
    }

    #[test]
    fn empty_trace() {
        assert_eq!(render_gantt(&[], 4, 20), "(empty trace)\n");
    }

    /// Only `Op` events count: other kinds neither paint cells, widen
    /// the horizon nor enter the summary.
    #[test]
    fn non_op_events_are_ignored() {
        let park = ObsEvent::Park { core: CoreId(0), line: 0, at: Time::from_ns(5_000) };
        assert_eq!(render_gantt(&[park], 1, 10), "(empty trace)\n");
        let events = vec![t(0, OpKind::PutFromMem, 0, 1000), park];
        assert_eq!(render_gantt(&events, 1, 10), render_gantt(&events[..1], 1, 10));
        assert_eq!(summarize(&events, 1).per_core[0].ops, 1);
    }

    /// An op ending exactly at the horizon maps to the exclusive cell
    /// bound `width`; the renderer must clamp, not index out of range,
    /// and the final cell must be painted.
    #[test]
    fn op_ending_at_horizon_paints_last_cell() {
        let events = vec![
            t(0, OpKind::PutFromMem, 0, 1000),
            t(1, OpKind::FlagPut, 900, 1000), // starts in the last cell
        ];
        let g = render_gantt(&events, 2, 10);
        let c0 = g.lines().find(|l| l.starts_with("C0")).unwrap();
        assert_eq!(&c0[c0.find('|').unwrap() + 1..c0.rfind('|').unwrap()], "PPPPPPPPPP", "{g}");
        let c1 = g.lines().find(|l| l.starts_with("C1")).unwrap();
        assert!(c1.ends_with("f|"), "{g}");
    }

    /// A poll-only run is a real (if idle) timeline, not an empty one.
    #[test]
    fn flag_read_only_trace_renders_idle_rows() {
        let events = vec![t(0, OpKind::FlagRead, 0, 700), t(1, OpKind::FlagRead, 0, 400)];
        let g = render_gantt(&events, 2, 12);
        assert!(!g.contains("(empty trace)"), "{g}");
        assert!(g.contains("C0  |............|"), "{g}");
        assert!(g.contains("C1  |............|"), "{g}");
    }

    /// Degenerate but legal: every op instantaneous at t=0. No division
    /// by zero, all rows idle.
    #[test]
    fn zero_horizon_nonempty_trace() {
        let events = vec![t(0, OpKind::FlagPut, 0, 0)];
        let g = render_gantt(&events, 1, 10);
        assert!(g.contains("C0  |..........|"), "{g}");
    }

    /// The legend is generated from `OpKind::ALL`: every kind with a
    /// non-idle glyph appears.
    #[test]
    fn legend_tracks_op_kinds() {
        let g = render_gantt(&[t(0, OpKind::PutFromMem, 0, 10)], 1, 10);
        for k in OpKind::ALL {
            if k.glyph() != b'.' {
                let entry = format!("{}={}", k.glyph() as char, k.short());
                assert!(g.contains(&entry), "legend missing {entry}: {g}");
            }
        }
    }
}

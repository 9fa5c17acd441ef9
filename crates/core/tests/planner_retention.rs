//! Oracle test of [`Planner::plan`]'s migration write-back and §V.C
//! retention: the preload and write-delay sets it returns, in order, and
//! the post-migration placement it writes back into the reports must
//! equal what the original scan-based code computes from the same plan.
//! That code is kept below as the test-only reference. The inputs cover
//! duplicate ids in the previous sets, previous-set ids with no report,
//! duplicate report ids, and ids past the dense-map boundary.

use ees_core::{
    select_preload, select_write_delay, ItemReport, LogicalIoPattern, Planner, ProposedConfig,
};
use ees_iotrace::{
    DataItemId, EnclosureId, IopsSeries, ItemIntervalStats, Micros, Span, DENSE_ID_LIMIT, MIB,
};
use ees_policy::{EnclosureView, ManagementPlan};
use proptest::prelude::*;
use std::collections::BTreeSet;

const ENCLOSURES: u16 = 6;

/// The reference: migration write-back by linear search, then the
/// quadratic retention loops, over the fresh selections the planner makes
/// from the written-back reports.
fn reference(
    cfg: &ProposedConfig,
    reports: &mut [ItemReport],
    plan: &ManagementPlan,
    last_preload: &[(DataItemId, u64)],
    last_write_delay: &[DataItemId],
) -> (Vec<(DataItemId, u64)>, Vec<DataItemId>) {
    for m in &plan.migrations {
        if let Some(r) = reports.iter_mut().find(|r| r.id == m.item) {
            r.enclosure = m.to;
        }
    }
    let cold: BTreeSet<EnclosureId> = plan
        .power_off_eligible
        .iter()
        .filter(|(_, off)| *off)
        .map(|(id, _)| *id)
        .collect();
    let is_cold = |e: EnclosureId| cold.contains(&e);
    let mut write_delay = if cfg.enable_write_delay {
        select_write_delay(reports, is_cold, cfg.write_delay_budget)
    } else {
        Vec::new()
    };
    let preload = if cfg.enable_preload {
        select_preload(reports, is_cold, cfg.preload_budget)
    } else {
        Vec::new()
    };
    let is_cold_resident = |id: DataItemId| {
        reports
            .iter()
            .any(|r| r.id == id && cold.contains(&r.enclosure))
    };
    let mut merged: Vec<(DataItemId, u64)> = Vec::new();
    let mut spent: u64 = 0;
    for &(id, size) in last_preload {
        if is_cold_resident(id) && spent + size <= cfg.preload_budget {
            spent += size;
            merged.push((id, size));
        }
    }
    for &(id, size) in &preload {
        if merged.iter().any(|(m, _)| *m == id) {
            continue;
        }
        if spent + size <= cfg.preload_budget {
            spent += size;
            merged.push((id, size));
        }
    }
    for &id in last_write_delay {
        if !write_delay.contains(&id) && is_cold_resident(id) {
            write_delay.push(id);
        }
    }
    (merged, write_delay)
}

/// Report ids: dense, sparse (past the dense map), or a repeat of the
/// previous report's id.
fn report_id(i: usize, kind: u8, prev: Option<DataItemId>) -> DataItemId {
    match (kind, prev) {
        (0, Some(p)) => p,
        (1, _) => DataItemId(DENSE_ID_LIMIT + i as u32),
        _ => DataItemId(2 * i as u32),
    }
}

type RawItem = (u16, u64, u8, u64, u8);

fn build_reports(raw: &[RawItem], period: Span) -> Vec<ItemReport> {
    let mut reports: Vec<ItemReport> = Vec::with_capacity(raw.len());
    for (i, &(enc, size_mib, pattern, ios, id_kind)) in raw.iter().enumerate() {
        let id = report_id(i, id_kind, reports.last().map(|r| r.id));
        let pattern = [
            LogicalIoPattern::P0,
            LogicalIoPattern::P1,
            LogicalIoPattern::P2,
            LogicalIoPattern::P3,
        ][pattern as usize];
        let (reads, writes) = match pattern {
            LogicalIoPattern::P0 => (0, 0),
            LogicalIoPattern::P1 => (ios, ios / 4),
            LogicalIoPattern::P2 => (ios / 4, ios),
            LogicalIoPattern::P3 => (ios, ios),
        };
        let secs = period.len().as_secs_f64() as u64;
        reports.push(ItemReport {
            id,
            enclosure: EnclosureId(enc),
            size: size_mib * MIB,
            pattern,
            stats: ItemIntervalStats {
                item: id,
                period,
                long_intervals: Vec::new(),
                sequences: Vec::new(),
                reads,
                writes,
                bytes_read: reads * 65_536,
                bytes_written: writes * 65_536,
            },
            iops: IopsSeries::from_timestamps(
                (0..(reads + writes).min(secs)).map(Micros::from_secs),
                period,
            ),
            sequential: false,
            seq_factor: 900.0 / 2800.0,
        });
    }
    reports
}

fn views(reports: &[ItemReport]) -> Vec<EnclosureView> {
    let mut used = [0u64; ENCLOSURES as usize];
    for r in reports {
        used[r.enclosure.0 as usize] += r.size;
    }
    let capacity = used.iter().copied().max().unwrap_or(0).max(MIB) * 2;
    (0..ENCLOSURES)
        .map(|e| EnclosureView {
            id: EnclosureId(e),
            capacity,
            used: used[e as usize],
            max_iops: 900.0,
            max_seq_iops: 2800.0,
            served_ios: 0,
            spin_ups: 0,
        })
        .collect()
}

/// Previous-set entries: an index into the reports (possibly repeated)
/// or, past the end, an id no report carries.
fn last_id(reports: &[ItemReport], pick: usize) -> DataItemId {
    match reports.get(pick) {
        Some(r) => r.id,
        None => DataItemId(2 * pick as u32 + 1),
    }
}

fn item() -> impl Strategy<Value = RawItem> {
    (0u16..ENCLOSURES, 1u64..160, 0u8..4, 0u64..20_000, 0u8..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_matches_scan_based_retention(
        periods in prop::collection::vec(prop::collection::vec(item(), 1..40), 1..4),
        last_picks in prop::collection::vec((0usize..48, 1u64..200), 0..30),
        budgets in (0u64..6, 0u64..6),
    ) {
        let cfg = ProposedConfig {
            preload_budget: budgets.0 * 100 * MIB,
            write_delay_budget: budgets.1 * 100 * MIB,
            ..ProposedConfig::default()
        };
        let first = build_reports(&periods[0], Span {
            start: Micros::ZERO,
            end: Micros::from_secs(600),
        });
        let mut state = Planner::new(cfg).export_state();
        state.last_preload = last_picks
            .iter()
            .map(|&(pick, size)| (last_id(&first, pick), size * MIB))
            .collect();
        state.last_write_delay = last_picks.iter().map(|&(pick, _)| last_id(&first, pick)).collect();
        let mut planner = Planner::from_state(cfg, state);

        for (p, raw) in periods.iter().enumerate() {
            let period = Span {
                start: Micros::from_secs(600 * p as u64),
                end: Micros::from_secs(600 * (p as u64 + 1)),
            };
            let input = build_reports(raw, period);
            let views = views(&input);
            let before = planner.export_state();

            let mut reports = input.clone();
            let out = planner.plan(period, Micros::from_secs(52), &mut reports, &views);

            let mut expected_reports = input;
            let (preload, write_delay) = reference(
                &cfg,
                &mut expected_reports,
                &out.plan,
                &before.last_preload,
                &before.last_write_delay,
            );
            prop_assert_eq!(&out.plan.preload, &preload, "period {}: preload", p);
            prop_assert_eq!(&out.plan.write_delay, &write_delay, "period {}: write delay", p);
            let homes = |rs: &[ItemReport]| rs.iter().map(|r| (r.id, r.enclosure)).collect::<Vec<_>>();
            prop_assert_eq!(homes(&reports), homes(&expected_reports), "period {}: write-back", p);
            let after = planner.export_state();
            prop_assert_eq!(&after.last_preload, &preload);
            prop_assert_eq!(&after.last_write_delay, &write_delay);
        }
    }
}

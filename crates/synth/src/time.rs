//! Minimal civil-time helpers (no external date crate).

/// Seconds per day.
pub const DAY: u64 = 86_400;
/// Seconds per hour.
pub const HOUR: u64 = 3_600;

/// Unix timestamp of 2019-05-01 00:00:00 UTC — the start of the
/// paper's collection window.
pub const MAY_2019: u64 = 1_556_668_800;

/// Day of week for a unix timestamp: 0 = Monday … 6 = Sunday.
///
/// The unix epoch (1970-01-01) was a Thursday, i.e. weekday 3.
pub fn day_of_week(ts: u64) -> u8 {
    ((ts / DAY + 3) % 7) as u8
}

/// Renders a timestamp as `YYYY-MM-DD HH:MM:SS` (UTC, proleptic
/// Gregorian) for report output.
pub fn format_ts(ts: u64) -> String {
    let days = ts / DAY;
    let secs = ts % DAY;
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

/// Howard Hinnant's `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(day_of_week(0), 3);
    }

    #[test]
    fn may_2019_starts_wednesday() {
        // 2019-05-01 was a Wednesday (weekday 2).
        assert_eq!(day_of_week(MAY_2019), 2);
    }

    #[test]
    fn format_known_dates() {
        assert_eq!(format_ts(0), "1970-01-01 00:00:00");
        assert_eq!(format_ts(MAY_2019), "2019-05-01 00:00:00");
        // 2019-05-11 03:05:40 (from the paper's Table 4).
        let ts = MAY_2019 + 10 * DAY + 3 * HOUR + 5 * 60 + 40;
        assert_eq!(format_ts(ts), "2019-05-11 03:05:40");
    }

    #[test]
    fn weekdays_cycle() {
        for d in 0..14 {
            let w1 = day_of_week(MAY_2019 + d * DAY);
            let w2 = day_of_week(MAY_2019 + (d + 7) * DAY);
            assert_eq!(w1, w2);
        }
    }
}

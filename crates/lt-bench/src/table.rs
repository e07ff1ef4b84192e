//! Minimal aligned-table printing for experiment output.

/// Print an aligned table: header row, separator, then data rows. Column
/// widths adapt to the widest cell.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        debug_assert_eq!(row.len(), ncols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a throughput in M steps/s.
pub fn msteps(x: f64) -> String {
    format!("{:.1}", x / 1e6)
}

/// Format nanoseconds as milliseconds.
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_and_msteps() {
        assert_eq!(ms(2_500_000), "2.50");
        assert_eq!(msteps(3.2e8), "320.0");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333".into(), "4444".into()],
            ],
        );
    }
}

//! Table 2 of the paper: measured bandwidth between six Amazon regions,
//! in Mbps. Row = source region, column = destination region.

use crate::WAN_LATENCY;
use dlion_simnet::NetworkModel;

/// Region short names, in table order.
pub const REGIONS: [&str; 6] = ["Virginia", "Oregon", "Ireland", "Mumbai", "Seoul", "Sydney"];

/// The bandwidth matrix (Mbps). Diagonal entries are 0 (unused).
pub const REGION_MBPS: [[f64; 6]; 6] = [
    //          V      O      I      M      S1     S2
    /* V  */
    [0.0, 190.0, 181.0, 53.0, 58.0, 56.0],
    /* O  */ [187.0, 0.0, 91.0, 41.0, 93.0, 84.0],
    /* I  */ [171.0, 92.0, 0.0, 73.0, 30.0, 41.0],
    /* M  */ [53.0, 41.0, 73.0, 0.0, 85.0, 79.0],
    /* S1 */ [58.0, 88.0, 40.0, 85.0, 0.0, 79.0],
    /* S2 */ [56.0, 84.0, 36.0, 79.0, 72.0, 0.0],
];

/// Name of region `i`.
pub fn region_name(i: usize) -> &'static str {
    REGIONS[i]
}

/// A 6-worker [`NetworkModel`] where worker `i` lives in region `i` and
/// link `i→j` carries the Table 2 bandwidth.
pub fn amazon_wan_network() -> NetworkModel {
    NetworkModel::from_matrix(6, REGION_MBPS.as_flattened(), WAN_LATENCY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_spot_checks() {
        // Virginia -> Oregon 190, Oregon -> Virginia 187 (asymmetric!).
        assert_eq!(REGION_MBPS[0][1], 190.0);
        assert_eq!(REGION_MBPS[1][0], 187.0);
        // Ireland -> Seoul 30 (the scarcest link).
        assert_eq!(REGION_MBPS[2][4], 30.0);
        // Mumbai -> Virginia 53.
        assert_eq!(REGION_MBPS[3][0], 53.0);
        // Sydney -> Ireland 36.
        assert_eq!(REGION_MBPS[5][2], 36.0);
    }

    #[test]
    fn diagonal_is_zero_and_rest_positive() {
        for (i, row) in REGION_MBPS.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i == j {
                    assert_eq!(v, 0.0);
                } else {
                    assert!(v > 0.0, "{i}->{j}");
                }
            }
        }
    }

    #[test]
    fn wan_is_much_scarcer_than_lan() {
        let max = REGION_MBPS.iter().flatten().fold(0.0f64, |m, &v| m.max(v));
        assert!(
            max < crate::LAN_MBPS / 5.0,
            "WAN max {max} vs LAN {}",
            crate::LAN_MBPS
        );
    }

    #[test]
    fn network_model_reads_matrix() {
        let net = amazon_wan_network();
        assert_eq!(net.bandwidth_mbps(0, 1, 0.0), 190.0);
        assert_eq!(net.bandwidth_mbps(4, 2, 0.0), 40.0);
    }

    #[test]
    fn region_names() {
        assert_eq!(region_name(0), "Virginia");
        assert_eq!(region_name(5), "Sydney");
    }
}

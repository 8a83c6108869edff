//! GeoJSON rendering of audit findings (RFC 7946).
//!
//! Maps and notebooks speak GeoJSON; audit reports speak
//! [`RegionFinding`](sfscan::RegionFinding). This module bridges the
//! two: [`findings_feature_collection`] renders a report's findings as
//! a `FeatureCollection` string — one `Feature` per finding, ordered
//! as the report ranks them, each carrying the finding's evidence as
//! properties (`index`, `center_id`, `n`, `p`, `rate`, `llr`) plus the
//! report-level `p_value` and `statistic` for self-contained plotting.
//!
//! Geometry is always a `Polygon` with one counterclockwise exterior
//! ring: rectangles emit their four corners, circles a deterministic
//! [`CIRCLE_SEGMENTS`]-gon approximation, and convex polygons their
//! vertices verbatim. The rendering is wire-level only — the service
//! computes it on demand for envelopes that asked for it (the
//! [`RequestEnvelope::geojson`](crate::RequestEnvelope::geojson) flag)
//! and never stores it.

use serde::Value;
use sfgeo::{Point, Region};
use sfscan::AuditReport;

/// Sides of the polygon approximating a circular region.
pub const CIRCLE_SEGMENTS: usize = 32;

/// Renders a report's findings as a GeoJSON `FeatureCollection`
/// string (compact, one line — it embeds directly in a JSONL response
/// envelope).
///
/// An audit with no findings (a fair verdict) renders as a collection
/// with an empty `features` array, so consumers can always parse the
/// same shape.
pub fn findings_feature_collection(report: &AuditReport) -> String {
    let features: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            obj(vec![
                ("type", Value::Str("Feature".into())),
                ("geometry", polygon(&f.region)),
                (
                    "properties",
                    obj(vec![
                        ("index", Value::U64(f.index as u64)),
                        (
                            "center_id",
                            f.center_id.map_or(Value::Null, |c| Value::U64(c as u64)),
                        ),
                        ("n", Value::U64(f.n)),
                        ("p", Value::U64(f.p)),
                        ("rate", Value::F64(f.rate)),
                        ("llr", Value::F64(f.llr)),
                        ("p_value", Value::F64(report.p_value)),
                        (
                            "statistic",
                            Value::Str(report.config.statistic.name().into()),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    let collection = obj(vec![
        ("type", Value::Str("FeatureCollection".into())),
        ("features", Value::Array(features)),
    ]);
    serde_json::to_string(&collection).expect("GeoJSON serialisation cannot fail")
}

/// A GeoJSON `Polygon` geometry for a scan region: one closed
/// counterclockwise exterior ring.
fn polygon(region: &Region) -> Value {
    let mut ring: Vec<Point> = match region {
        Region::Rect(r) => vec![
            Point::new(r.min.x, r.min.y),
            Point::new(r.max.x, r.min.y),
            Point::new(r.max.x, r.max.y),
            Point::new(r.min.x, r.max.y),
        ],
        Region::Circle(c) => (0..CIRCLE_SEGMENTS)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / CIRCLE_SEGMENTS as f64;
                Point::new(
                    c.center.x + c.radius * theta.cos(),
                    c.center.y + c.radius * theta.sin(),
                )
            })
            .collect(),
        Region::Polygon(p) => p.vertices().to_vec(),
    };
    // RFC 7946: the ring is closed — first and last positions equal.
    if let Some(&first) = ring.first() {
        ring.push(first);
    }
    let positions: Vec<Value> = ring
        .iter()
        .map(|p| Value::Array(vec![Value::F64(p.x), Value::F64(p.y)]))
        .collect();
    obj(vec![
        ("type", Value::Str("Polygon".into())),
        ("coordinates", Value::Array(vec![Value::Array(positions)])),
    ])
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (String::from(k), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgeo::{Circle, Rect};
    use sfscan::{AuditConfig, Auditor, RegionSet, SpatialOutcomes};

    fn report() -> AuditReport {
        let points: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5))
            .collect();
        let labels: Vec<bool> = (0..100).map(|i| i % 10 < 5).collect();
        let outcomes = SpatialOutcomes::new(points, labels).unwrap();
        let regions = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 2, 1);
        let config = AuditConfig::new(0.05).with_worlds(99).with_seed(7);
        Auditor::new(config).audit(&outcomes, &regions).unwrap()
    }

    #[test]
    fn feature_collection_carries_every_finding() {
        let report = report();
        assert!(!report.findings.is_empty());
        let geojson = findings_feature_collection(&report);
        let value = serde_json::parse_value(&geojson).unwrap();
        assert_eq!(
            value.get("type").and_then(|v| v.as_str()),
            Some("FeatureCollection")
        );
        let Some(Value::Array(features)) = value.get("features") else {
            panic!("features must be an array");
        };
        assert_eq!(features.len(), report.findings.len());
        let first = &features[0];
        let geometry = first.get("geometry").unwrap();
        assert_eq!(
            geometry.get("type").and_then(|v| v.as_str()),
            Some("Polygon")
        );
        let Some(Value::Array(rings)) = geometry.get("coordinates") else {
            panic!("coordinates must be an array of rings");
        };
        let Value::Array(ring) = &rings[0] else {
            panic!("the exterior ring must be an array");
        };
        assert_eq!(ring.len(), 5, "a rectangle ring has 4 corners + closure");
        assert_eq!(ring.first(), ring.last(), "the ring is closed");
        let props = first.get("properties").unwrap();
        for key in ["index", "n", "p", "rate", "llr", "p_value", "statistic"] {
            assert!(props.get(key).is_some(), "missing property {key}");
        }
        assert_eq!(
            props.get("statistic").and_then(|v| v.as_str()),
            Some("bernoulli-llr")
        );
    }

    #[test]
    fn circles_render_as_closed_polygon_approximations() {
        let circle = Region::Circle(Circle::new(Point::new(1.0, 2.0), 3.0));
        let geometry = polygon(&circle);
        let Some(Value::Array(rings)) = geometry.get("coordinates") else {
            panic!("coordinates must be an array of rings");
        };
        let Value::Array(ring) = &rings[0] else {
            panic!("the exterior ring must be an array");
        };
        assert_eq!(ring.len(), CIRCLE_SEGMENTS + 1);
        assert_eq!(ring.first(), ring.last());
        // Every vertex sits on the circle.
        for position in ring {
            let Value::Array(xy) = position else {
                panic!("positions are [x, y]")
            };
            let (x, y) = (xy[0].as_f64().unwrap(), xy[1].as_f64().unwrap());
            let d = ((x - 1.0).powi(2) + (y - 2.0).powi(2)).sqrt();
            assert!((d - 3.0).abs() < 1e-9, "vertex off the circle: {d}");
        }
    }
}

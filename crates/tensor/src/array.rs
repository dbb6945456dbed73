//! Dense 2-D `f32` arrays.
//!
//! Every tensor in the reproduction is a row-major matrix. Sequence models
//! process one sentence at a time, so the shapes that occur are small:
//! `[L, D]` token features, `[V, D]` embedding tables, `[T, T]` CRF
//! transitions, `[1, 1]` losses. Restricting to two dimensions keeps the
//! autodiff engine simple and auditable without losing any expressiveness the
//! paper's models need.
//!
//! [`Array`] is the *value* type; the computation graph in
//! [`crate::graph`] wraps it with gradient bookkeeping.

use fewner_util::{hex, FromJson, Json, ToJson};
use fewner_util::{Error, Result, Rng};

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// `{"rows": r, "cols": c, "bits": "…"}`: the values' exact `f32` bit
/// patterns, 8 lowercase hex digits each, row-major ([`fewner_util::hex`]).
/// Every pattern round-trips, including NaN payloads, ±∞ and `-0.0`.
impl ToJson for Array {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rows".into(), Json::from(self.rows)),
            ("cols".into(), Json::from(self.cols)),
            ("bits".into(), Json::Str(hex::encode(&self.data))),
        ])
    }
}

impl FromJson for Array {
    fn from_json(json: &Json) -> Result<Array> {
        let rows = json.field("rows")?.as_usize()?;
        let cols = json.field("cols")?.as_usize()?;
        let data: Vec<f32> = hex::decode(json.field("bits")?.as_str()?)?;
        if Some(data.len()) != rows.checked_mul(cols) {
            return Err(Error::Serde(format!(
                "Array JSON holds {} values for shape [{rows}, {cols}]",
                data.len()
            )));
        }
        Ok(Array { rows, cols, data })
    }
}

impl Array {
    /// Creates an array from raw parts. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Array {
        assert_eq!(
            data.len(),
            rows * cols,
            "Array::from_vec: {} values for shape [{rows}, {cols}]",
            data.len()
        );
        Array { rows, cols, data }
    }

    /// All-zeros array.
    pub fn zeros(rows: usize, cols: usize) -> Array {
        Array {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Array filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Array {
        Array {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// 1×1 array holding a scalar.
    pub fn scalar(value: f32) -> Array {
        Array::full(1, 1, value)
    }

    /// Uniform random entries in `[lo, hi)`.
    pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Array {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Array { rows, cols, data }
    }

    /// Gaussian random entries with the given standard deviation.
    pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Array {
        let data = (0..rows * cols).map(|_| rng.normal() * std).collect();
        Array { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialisation: U(±√(6/(fan_in+fan_out))).
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Array {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Array::uniform(rows, cols, -bound, bound, rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a 1×1 array.
    ///
    /// # Panics
    /// Panics when the array is not 1×1.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "scalar_value on non-scalar [{}, {}]",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Array) -> Result<Array> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                detail: format!(
                    "[{}, {}] x [{}, {}]",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Array::zeros(self.rows, rhs.cols);
        matmul_into(self, rhs, &mut out, false);
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Array {
        let mut out = Array::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Array {
        Array {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f32, other: &Array) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Index of the maximum element of a row.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Fills the array with zeros, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Consumes the array, returning its backing storage for reuse (the
    /// inference arena's buffer pool).
    pub(crate) fn take_data(self) -> Vec<f32> {
        self.data
    }
}

/// `out += a · b` (or `out = a · b` when `overwrite` is false means accumulate).
///
/// i–k–j loop order so the inner loop streams contiguously over both `b` and
/// `out`, which the compiler auto-vectorises; at the matrix sizes used by the
/// models here this is within a small factor of a tuned BLAS and avoids any
/// unsafe code.
pub(crate) fn matmul_into(a: &Array, b: &Array, out: &mut Array, accumulate: bool) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!((out.rows, out.cols), (a.rows, b.cols));
    if !accumulate {
        out.fill_zero();
    }
    let n = b.cols;
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (k, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b.data[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// `out += aᵀ · b` without materialising the transpose.
pub(crate) fn matmul_at_b(a: &Array, b: &Array, out: &mut Array) {
    debug_assert_eq!(a.rows, b.rows);
    debug_assert_eq!((out.rows, out.cols), (a.cols, b.cols));
    let n = b.cols;
    for r in 0..a.rows {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `out += a · bᵀ` without materialising the transpose.
pub(crate) fn matmul_a_bt(a: &Array, b: &Array, out: &mut Array) {
    debug_assert_eq!(a.cols, b.cols);
    debug_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Array::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Array::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Array::zeros(2, 3);
        let b = Array::zeros(4, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(Error::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = Rng::new(5);
        let a = Array::uniform(3, 7, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), a.at(1, 2));
    }

    #[test]
    fn at_b_and_a_bt_match_explicit_transpose() {
        let mut rng = Rng::new(6);
        let a = Array::uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Array::uniform(4, 5, -1.0, 1.0, &mut rng);
        let mut out = Array::zeros(3, 5);
        matmul_at_b(&a, &b, &mut out);
        let expected = a.transpose().matmul(&b).unwrap();
        for (x, y) in out.data().iter().zip(expected.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Array::uniform(4, 3, -1.0, 1.0, &mut rng);
        let d = Array::uniform(5, 3, -1.0, 1.0, &mut rng);
        let mut out2 = Array::zeros(4, 5);
        matmul_a_bt(&c, &d, &mut out2);
        let expected2 = c.matmul(&d.transpose()).unwrap();
        for (x, y) in out2.data().iter().zip(expected2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = Rng::new(8);
        let a = Array::xavier(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Array::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Array::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0, 18.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let a = Array::from_vec(2, 3, vec![0.0, 5.0, 5.0, -1.0, -2.0, -3.0]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn json_round_trip() {
        let mut rng = Rng::new(10);
        let uniform = Array::uniform(3, 4, -2.0, 2.0, &mut rng);
        // Every bit pattern survives, including the values decimal JSON
        // cannot hold (NaN payloads, ±∞) or easily loses (-0.0).
        let special = Array::from_vec(
            3,
            4,
            vec![
                f32::NAN,
                f32::from_bits(0x7fc0_beef),
                f32::from_bits(0xffa0_0001),
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                0.0,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
                -f32::from_bits(0x007f_ffff),
                f32::MAX,
                f32::MIN,
            ],
        );
        let bits = |a: &Array| a.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for a in [uniform, special] {
            let json = a.to_json().to_string();
            let back = Array::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back.shape(), a.shape());
            assert_eq!(bits(&back), bits(&a));
        }
    }

    #[test]
    fn malformed_hex_tensors_are_serde_errors() {
        let doc = |rows: usize, cols: usize, bits: &str| {
            Json::Obj(vec![
                ("rows".into(), Json::from(rows)),
                ("cols".into(), Json::from(cols)),
                ("bits".into(), Json::from(bits)),
            ])
        };
        let one = "3f800000";
        for bad in [
            doc(1, 1, "3f80000"),       // not a multiple of 8 digits
            doc(1, 1, "3f8000000"),     // ditto, one too many
            doc(1, 1, "3f80000x"),      // non-hex digit
            doc(1, 1, "3F800000"),      // uppercase
            doc(1, 1, "3f80 000"),      // a space
            doc(1, 1, "3f8000é"),       // non-ASCII (8 bytes)
            doc(1, 2, one),             // too few values for the shape
            doc(1, 1, &one.repeat(2)),  // too many
            doc(1 << 40, 1 << 40, one), // shape overflows usize
        ] {
            assert!(
                matches!(Array::from_json(&bad), Err(Error::Serde(_))),
                "{bad} accepted"
            );
        }
        let numbers = Json::Obj(vec![
            ("rows".into(), Json::from(1usize)),
            ("cols".into(), Json::from(1usize)),
            ("data".into(), Json::Arr(vec![Json::from(1.0f32)])),
        ]);
        assert!(matches!(Array::from_json(&numbers), Err(Error::Serde(_))));
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut a = Array::zeros(2, 2);
        assert!(a.all_finite());
        *a.at_mut(0, 1) = f32::NAN;
        assert!(!a.all_finite());
        *a.at_mut(0, 1) = f32::INFINITY;
        assert!(!a.all_finite());
    }
}

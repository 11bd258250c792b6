//! Parameter checkpointing.
//!
//! The paper's profile-driven deployment (Section 5.5) trains offline
//! and ships the weights to an inference engine "with a new ISA
//! interface". This module provides the serialization half: a compact
//! binary checkpoint of a [`ParamStore`], restorable into a store with
//! identical layout.
//!
//! Format:
//!
//! ```text
//! magic "VNNP"           4 bytes
//! version u32 LE
//! tensor count u32 LE
//! per tensor: name len u32 LE, name bytes,
//!             rows u32 LE, cols u32 LE, rows*cols f32 LE values
//! ```

use std::io::{self, Read, Write};

use voyager_tensor::Tensor2;

use crate::{Adam, AdamState, ParamStore};

const MAGIC: &[u8; 4] = b"VNNP";
const VERSION: u32 = 1;

const TRAIN_MAGIC: &[u8; 4] = b"VNNT";
const TRAIN_VERSION: u32 = 1;

/// Errors returned by [`load_params`].
#[derive(Debug)]
pub enum LoadParamsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a parameter checkpoint.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Checkpoint layout does not match the target store (wrong tensor
    /// count, name, or shape).
    LayoutMismatch(String),
}

impl std::fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadParamsError::Io(e) => write!(f, "i/o error: {e}"),
            LoadParamsError::BadMagic => write!(f, "not a parameter checkpoint (bad magic)"),
            LoadParamsError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            LoadParamsError::LayoutMismatch(what) => write!(f, "layout mismatch: {what}"),
        }
    }
}

impl std::error::Error for LoadParamsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadParamsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadParamsError {
    fn from(e: io::Error) -> Self {
        LoadParamsError::Io(e)
    }
}

/// Writes every parameter of `store` to `writer`. A `&mut` reference
/// may be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_params<W: Write>(mut writer: W, store: &ParamStore) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(store.len() as u32).to_le_bytes())?;
    for (_, name, value) in store.iter() {
        writer.write_all(&(name.len() as u32).to_le_bytes())?;
        writer.write_all(name.as_bytes())?;
        let (rows, cols) = value.shape();
        writer.write_all(&(rows as u32).to_le_bytes())?;
        writer.write_all(&(cols as u32).to_le_bytes())?;
        for &v in value.as_slice() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores a checkpoint written by [`save_params`] into `store`, which
/// must have been built by the same model constructor (identical
/// tensor names and shapes, in order). A `&mut` reference may be passed
/// for `reader`.
///
/// # Errors
///
/// Returns [`LoadParamsError`] on malformed input or layout mismatch;
/// the store is left partially updated only on I/O failure mid-stream.
pub fn load_params<R: Read>(mut reader: R, store: &mut ParamStore) -> Result<(), LoadParamsError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadParamsError::BadMagic);
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(LoadParamsError::BadVersion(version));
    }
    let count = read_u32(&mut reader)? as usize;
    if count != store.len() {
        return Err(LoadParamsError::LayoutMismatch(format!(
            "checkpoint has {count} tensors, store has {}",
            store.len()
        )));
    }
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        // Check the length before allocating: it comes from the file.
        let name_len = read_u32(&mut reader)? as usize;
        if name_len != store.name(id).len() {
            return Err(LoadParamsError::LayoutMismatch(format!(
                "expected tensor {:?} ({} name bytes), found a {name_len}-byte name",
                store.name(id),
                store.name(id).len()
            )));
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8_lossy(&name).into_owned();
        if name != store.name(id) {
            return Err(LoadParamsError::LayoutMismatch(format!(
                "expected tensor {:?}, found {:?}",
                store.name(id),
                name
            )));
        }
        let rows = read_u32(&mut reader)? as usize;
        let cols = read_u32(&mut reader)? as usize;
        if (rows, cols) != store.value(id).shape() {
            return Err(LoadParamsError::LayoutMismatch(format!(
                "tensor {name:?}: checkpoint {rows}x{cols}, store {:?}",
                store.value(id).shape()
            )));
        }
        let mut data = vec![0f32; rows * cols];
        for v in &mut data {
            let mut buf = [0u8; 4];
            reader.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        *store.value_mut(id) = Tensor2::from_vec(rows, cols, data);
    }
    Ok(())
}

/// Writes a *training-state* checkpoint: the parameters of `store`
/// (exactly as [`save_params`]) plus the optimizer's mutable state
/// (learning rate, step count, Adam moments), so training can resume
/// where it left off.
///
/// Format:
///
/// ```text
/// magic "VNNT"            4 bytes
/// version u32 LE
/// <save_params payload>
/// lr f32 LE, steps u64 LE, moment count u32 LE
/// per moment: param index u32 LE, rows u32 LE, cols u32 LE,
///             rows*cols f32 LE first-moment values,
///             rows*cols f32 LE second-moment values
/// ```
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_training_state<W: Write>(
    mut writer: W,
    store: &ParamStore,
    adam: &Adam,
) -> io::Result<()> {
    writer.write_all(TRAIN_MAGIC)?;
    writer.write_all(&TRAIN_VERSION.to_le_bytes())?;
    save_params(&mut writer, store)?;
    let state = adam.export_state();
    writer.write_all(&state.lr.to_le_bytes())?;
    writer.write_all(&state.steps.to_le_bytes())?;
    writer.write_all(&(state.moments.len() as u32).to_le_bytes())?;
    for (idx, m, v) in &state.moments {
        writer.write_all(&(*idx as u32).to_le_bytes())?;
        let (rows, cols) = m.shape();
        writer.write_all(&(rows as u32).to_le_bytes())?;
        writer.write_all(&(cols as u32).to_le_bytes())?;
        for &x in m.as_slice() {
            writer.write_all(&x.to_le_bytes())?;
        }
        for &x in v.as_slice() {
            writer.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores a checkpoint written by [`save_training_state`] into
/// `store` and `adam`, both of which must have been built by the same
/// constructors as at save time.
///
/// # Errors
///
/// Returns [`LoadParamsError`] on malformed input or layout mismatch.
pub fn load_training_state<R: Read>(
    mut reader: R,
    store: &mut ParamStore,
    adam: &mut Adam,
) -> Result<(), LoadParamsError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != TRAIN_MAGIC {
        return Err(LoadParamsError::BadMagic);
    }
    let version = read_u32(&mut reader)?;
    if version != TRAIN_VERSION {
        return Err(LoadParamsError::BadVersion(version));
    }
    load_params(&mut reader, store)?;
    let lr = f32::from_le_bytes(read_array(&mut reader)?);
    let steps = u64::from_le_bytes(read_array(&mut reader)?);
    let count = read_u32(&mut reader)? as usize;
    if count > store.len() {
        return Err(LoadParamsError::LayoutMismatch(format!(
            "checkpoint has {count} moments, store has {} parameters",
            store.len()
        )));
    }
    let mut moments = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = read_u32(&mut reader)? as usize;
        if idx >= store.len() {
            return Err(LoadParamsError::LayoutMismatch(format!(
                "moment for parameter {idx}, store has {}",
                store.len()
            )));
        }
        let rows = read_u32(&mut reader)? as usize;
        let cols = read_u32(&mut reader)? as usize;
        let expect = store.value(crate::ParamId(idx)).shape();
        if (rows, cols) != expect {
            return Err(LoadParamsError::LayoutMismatch(format!(
                "moment {idx}: checkpoint {rows}x{cols}, parameter is {expect:?}"
            )));
        }
        let read_tensor = |reader: &mut R| -> Result<Tensor2, LoadParamsError> {
            let mut data = vec![0f32; rows * cols];
            for x in &mut data {
                *x = f32::from_le_bytes(read_array(reader)?);
            }
            Ok(Tensor2::from_vec(rows, cols, data))
        };
        let m = read_tensor(&mut reader)?;
        let v = read_tensor(&mut reader)?;
        moments.push((idx, m, v));
    }
    adam.import_state(AdamState { lr, steps, moments });
    Ok(())
}

fn read_array<const N: usize, R: Read>(reader: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use voyager_tensor::rng::{SeedableRng, StdRng};

    fn store_pair() -> (ParamStore, ParamStore) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = ParamStore::new();
        let _ = Linear::new(&mut a, "fc", 3, 2, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(99);
        let mut b = ParamStore::new();
        let _ = Linear::new(&mut b, "fc", 3, 2, &mut rng2);
        (a, b)
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let (a, mut b) = store_pair();
        let mut buf = Vec::new();
        save_params(&mut buf, &a).unwrap();
        load_params(buf.as_slice(), &mut b).unwrap();
        for ((_, _, va), (_, _, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(va.as_slice(), vb.as_slice());
        }
    }

    #[test]
    fn layout_mismatch_is_detected() {
        let (a, _) = store_pair();
        let mut buf = Vec::new();
        save_params(&mut buf, &a).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut other = ParamStore::new();
        let _ = Linear::new(&mut other, "different", 3, 2, &mut rng);
        let err = load_params(buf.as_slice(), &mut other).unwrap_err();
        assert!(matches!(err, LoadParamsError::LayoutMismatch(_)), "{err}");
    }

    #[test]
    fn wrong_shape_is_detected() {
        let (a, _) = store_pair();
        let mut buf = Vec::new();
        save_params(&mut buf, &a).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut other = ParamStore::new();
        let _ = Linear::new(&mut other, "fc", 4, 2, &mut rng);
        assert!(matches!(
            load_params(buf.as_slice(), &mut other).unwrap_err(),
            LoadParamsError::LayoutMismatch(_)
        ));
    }

    #[test]
    fn training_state_roundtrip_resumes_identically() {
        use crate::{Adam, Session};
        // Train a few steps, checkpoint, train more on both the original
        // and a restored copy: they must stay bitwise identical.
        let (mut store, _) = store_pair();
        let mut adam = Adam::new(0.05);
        let x = Tensor2::from_rows(&[&[1.0, 0.5, -0.5]]);
        let step = |store: &mut ParamStore, adam: &mut Adam| {
            let mut sess = Session::new();
            let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
            let w = sess.param(store, ids[0]);
            let xv = sess.tape.leaf(x.clone(), false);
            let y = sess.tape.matmul(xv, w);
            let sq = sess.tape.mul(y, y);
            let loss = sess.tape.sum_all(sq);
            sess.step(loss, store, adam);
        };
        for _ in 0..3 {
            step(&mut store, &mut adam);
        }
        let mut buf = Vec::new();
        save_training_state(&mut buf, &store, &adam).unwrap();

        let (mut restored, _) = store_pair();
        let mut radam = Adam::new(0.05);
        load_training_state(buf.as_slice(), &mut restored, &mut radam).unwrap();
        assert_eq!(radam.steps(), adam.steps());

        for _ in 0..3 {
            step(&mut store, &mut adam);
            step(&mut restored, &mut radam);
        }
        for ((_, _, va), (_, _, vb)) in store.iter().zip(restored.iter()) {
            assert_eq!(va.as_slice(), vb.as_slice());
        }
    }

    #[test]
    fn training_state_rejects_params_only_checkpoint() {
        let (store, mut other) = store_pair();
        let mut buf = Vec::new();
        save_params(&mut buf, &store).unwrap();
        let mut adam = Adam::new(0.05);
        assert!(matches!(
            load_training_state(buf.as_slice(), &mut other, &mut adam).unwrap_err(),
            LoadParamsError::BadMagic
        ));
    }

    #[test]
    fn huge_name_length_is_rejected_before_allocating() {
        let (_, mut b) = store_pair();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = load_params(buf.as_slice(), &mut b).unwrap_err();
        assert!(matches!(err, LoadParamsError::LayoutMismatch(_)), "{err}");
    }

    #[test]
    fn huge_moment_count_is_rejected_before_allocating() {
        let (store, mut other) = store_pair();
        let mut buf = Vec::new();
        buf.extend_from_slice(TRAIN_MAGIC);
        buf.extend_from_slice(&TRAIN_VERSION.to_le_bytes());
        save_params(&mut buf, &store).unwrap();
        buf.extend_from_slice(&0.05f32.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut adam = Adam::new(0.05);
        let err = load_training_state(buf.as_slice(), &mut other, &mut adam).unwrap_err();
        assert!(matches!(err, LoadParamsError::LayoutMismatch(_)), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (_, mut b) = store_pair();
        assert!(matches!(
            load_params(&b"XXXX...."[..], &mut b).unwrap_err(),
            LoadParamsError::BadMagic
        ));
    }
}

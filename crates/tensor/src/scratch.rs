//! Thread-local scratch-buffer arena for kernel temporaries.
//!
//! Fault-injection campaigns run thousands of forward passes over the same
//! network, and every conv layer used to allocate (and fault-in pages for)
//! fresh im2col matrices, per-image copies and matmul outputs on each pass.
//! This module recycles those buffers: [`take`] hands out a zeroed `Vec`
//! from a per-thread pool, and dropping the returned [`ScratchBuf`] returns
//! the allocation to the pool instead of freeing it.
//!
//! One pool exists per element type (`f32` for the float kernels, `i8`/
//! `u8`/`i16`/`i32` for the quantized GEMM pack buffers and accumulators),
//! so a buffer is always recycled into a pool of its own layout. Other
//! crates pool their own `Copy` types by implementing [`Poolable`]. The pools are
//! thread-local, so parallel MCMC chains each keep their own warm buffers
//! without any synchronisation.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// Maximum number of idle buffers kept per thread and type; beyond this,
/// dropped buffers are simply freed. A forward pass needs at most a
/// handful of live buffers at once, so a small cap bounds memory without
/// ever hitting the allocator on the steady-state inference path.
const POOL_CAP: usize = 8;

/// An element type with a thread-local buffer pool.
pub trait Poolable: Copy + 'static {
    /// The zero value buffers are (re)filled with on [`take`].
    const ZERO: Self;
    /// The per-thread pool for this element type.
    fn pool() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

macro_rules! poolable {
    ($ty:ty, $zero:expr, $pool:ident) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        impl Poolable for $ty {
            const ZERO: Self = $zero;

            fn pool() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
                &$pool
            }
        }
    };
}

poolable!(f32, 0.0, POOL_F32);
poolable!(i8, 0, POOL_I8);
poolable!(u8, 0, POOL_U8);
poolable!(i16, 0, POOL_I16);
poolable!(i32, 0, POOL_I32);
poolable!(i64, 0, POOL_I64);

/// A pooled buffer; dereferences to a slice of the requested length.
///
/// On drop the underlying allocation is returned to the thread-local pool
/// for reuse by the next [`take`] of the same element type.
#[derive(Debug)]
pub struct ScratchBuf<T: Poolable = f32> {
    buf: Vec<T>,
}

/// Borrows a zero-filled buffer of exactly `len` elements from the
/// thread-local pool of the requested element type, allocating only if the
/// pool is empty.
pub fn take<T: Poolable>(len: usize) -> ScratchBuf<T> {
    let mut buf = T::pool().with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, T::ZERO);
    ScratchBuf { buf }
}

impl<T: Poolable> Deref for ScratchBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T: Poolable> DerefMut for ScratchBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T: Poolable> Drop for ScratchBuf<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        T::pool().with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_even_after_reuse() {
        {
            let mut b = take::<f32>(16);
            b.iter_mut().for_each(|x| *x = 42.0);
        }
        let b = take::<f32>(16);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn capacity_is_recycled() {
        let ptr = {
            let b = take::<f32>(1024);
            b.as_ptr()
        };
        // The freed allocation should be handed straight back.
        let b = take::<f32>(1024);
        assert_eq!(b.as_ptr(), ptr);
    }

    #[test]
    fn integer_pools_are_distinct_from_the_float_pool() {
        let i8_ptr = {
            let b = take::<i8>(256);
            b.as_ptr() as usize
        };
        // Recycled within the same type...
        let b = take::<i8>(256);
        assert_eq!(b.as_ptr() as usize, i8_ptr);
        drop(b);
        // ...and i32/u8 takes are served from their own pools.
        let w = take::<i32>(64);
        assert!(w.iter().all(|&x| x == 0));
        let u = take::<u8>(64);
        assert!(u.iter().all(|&x| x == 0));
    }

    #[test]
    fn nested_takes_get_distinct_buffers() {
        let mut a = take::<f32>(8);
        let mut b = take::<f32>(8);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!((a[0], b[0]), (1.0, 2.0));
    }

    #[test]
    fn zero_length_take_works() {
        let b = take::<f32>(0);
        assert!(b.is_empty());
    }
}

#pragma once

/// \file aligned.hpp
/// 64-byte-aligned allocator for numeric buffers.
///
/// Tensor storage is allocated through this allocator so every buffer
/// starts on a cache-line (and full zmm-register) boundary. The vector
/// kernels use unaligned loads and therefore stay *correct* on any
/// address, but 64-byte bases keep AVX-512 loads from straddling cache
/// lines on the hot row-major access patterns and make row strides
/// predictable for the packing routines. tests/test_zero_alloc.cpp
/// asserts the alignment so a silent fallback to the default allocator
/// would be caught.
///
/// Allocation goes through the aligned global operator new, so code that
/// interposes the allocator (the counting allocator in the zero-alloc
/// test) observes these allocations by also interposing the align_val_t
/// forms.

#include <cstddef>
#include <new>

namespace xpcore {

/// Minimum alignment of numeric buffers: one cache line, one zmm register.
inline constexpr std::size_t kBufferAlignment = 64;

template <typename T>
struct AlignedAllocator {
    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{kBufferAlignment}));
    }

    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{kBufferAlignment});
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U>&) const noexcept {
        return true;
    }
};

}  // namespace xpcore

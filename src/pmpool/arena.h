// pmpool::Arena — page-aligned, zero-initialized buffer arena backing
// the shard datapath's stripe buffers. Page alignment is what lets the
// io_uring backend pin the slabs as registered buffers (zero-copy
// READ_FIXED/WRITE_FIXED straight into the encode kernels' working
// set), and what a real PM-backed pool would hand out anyway (PM maps
// are page-granular). The arena owns every slab until it is destroyed
// or reset, so spans handed to in-flight I/O stay valid for the whole
// operation. Slabs are zeroed only when allocated: the shard store
// keeps an arena across operations and zeroes what each one needs.
//
// Not thread-safe: the shard store lends an arena to one operation at
// a time.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace pmpool {

class Arena {
 public:
  /// `alignment` must be a power of two; the default is the page size
  /// every io_uring buffer-registration path accepts.
  explicit Arena(std::size_t alignment = 4096);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A fresh zeroed aligned slab of `n` bytes (n rounded up to the
  /// alignment internally; the returned span is exactly `n` long).
  std::span<std::byte> allocate(std::size_t n);

  /// Drop every slab (spans from before reset dangle).
  void reset();

  std::size_t slabs() const { return slabs_.size(); }
  std::size_t bytes() const { return bytes_; }

  /// One iovec per slab, in allocation order — the list handed to
  /// Ring::register_buffers. Slab i's buffer index is i.
  const std::vector<iovec>& iovecs() const { return iovecs_; }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const;
  };

  std::size_t alignment_;
  std::size_t bytes_ = 0;
  std::vector<std::unique_ptr<std::byte[], FreeDeleter>> slabs_;
  std::vector<iovec> iovecs_;
};

}  // namespace pmpool

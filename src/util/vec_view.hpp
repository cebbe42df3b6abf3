#pragma once
/// \file vec_view.hpp
/// A sequence that is either an owning std::vector or a read-only view over
/// externally owned memory (a section of an mmap-ed dataset blob). Build
/// paths fill a std::vector and move it in; the dataset loader aliases the
/// mapped bytes with view() so cold-serving a precompiled blob copies
/// nothing. Either way the sequence is read-only. Element types must be
/// trivially copyable — views reinterpret raw bytes.

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace cals {

template <typename T>
class VecOrView {
  static_assert(std::is_trivially_copyable_v<T>,
                "VecOrView elements must be trivially copyable");

 public:
  VecOrView() = default;
  /// Takes ownership of a filled vector.
  explicit VecOrView(std::vector<T> owned) : own_(std::move(owned)) { sync(); }

  /// A read-only alias of [data, data + size); the caller keeps the bytes
  /// alive for the lifetime of the view (LoadedDataset holds the mapping).
  static VecOrView view(const T* data, std::size_t size) {
    VecOrView v;
    v.is_view_ = true;
    v.data_ = data;
    v.size_ = size;
    return v;
  }

  VecOrView(const VecOrView& other) { assign_from(other); }
  VecOrView(VecOrView&& other) noexcept { move_from(std::move(other)); }
  VecOrView& operator=(const VecOrView& other) {
    if (this != &other) assign_from(other);
    return *this;
  }
  VecOrView& operator=(VecOrView&& other) noexcept {
    if (this != &other) move_from(std::move(other));
    return *this;
  }

  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& back() const { return data_[size_ - 1]; }
  bool is_view() const { return is_view_; }

 private:
  void sync() {
    data_ = own_.data();
    size_ = own_.size();
  }
  void assign_from(const VecOrView& other) {
    is_view_ = other.is_view_;
    if (is_view_) {
      own_.clear();
      data_ = other.data_;
      size_ = other.size_;
    } else {
      own_ = other.own_;
      sync();
    }
  }
  void move_from(VecOrView&& other) noexcept {
    is_view_ = other.is_view_;
    if (is_view_) {
      own_.clear();
      data_ = other.data_;
      size_ = other.size_;
    } else {
      own_ = std::move(other.own_);
      sync();
    }
  }

  std::vector<T> own_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool is_view_ = false;
};

}  // namespace cals

/**
 * @file
 * FunctionRef: a non-owning reference to a callable — an object
 * pointer and a call thunk, never a heap block. It stands in for a
 * `const std::function &` parameter whose callable is only invoked
 * during the call it is passed to: a lambda capturing more than
 * std::function's small-object buffer (16 bytes in libstdc++)
 * would otherwise be heap-allocated on every call.
 *
 * The referenced callable must outlive every invocation; passing a
 * temporary lambda as an argument is fine, storing a FunctionRef
 * past the full-expression that created it is not.
 */

#ifndef ADCACHE_UTIL_FUNCTION_REF_HH
#define ADCACHE_UTIL_FUNCTION_REF_HH

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace adcache
{

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)>
{
  public:
    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f) noexcept
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return std::invoke(
                  *static_cast<std::remove_reference_t<F> *>(obj),
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

} // namespace adcache

#endif // ADCACHE_UTIL_FUNCTION_REF_HH

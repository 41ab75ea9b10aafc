// Fixture: checkpointable classes where every field is accounted
// for — serialized directly in the state body, serialized through a
// same-class helper, serialized by an out-of-line state body, exempt
// wiring (pointer / reference / const / callback / mutable members),
// or waived
// with a written reason. Expected: exactly one state-cov finding,
// waived.
namespace fixture
{

struct Config;

class SnapClean
{
  public:
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u64(self.epoch_);
        hotState(self, ar);
    }

  private:
    template <class Self, class Ar>
    static void
    hotState(Self &self, Ar &ar)
    {
        ar.u64(self.hot_);
    }

    unsigned long epoch_ = 0;
    unsigned long hot_ = 0;
    Config *config_ = nullptr;
    Config &wiring_;
    const int id_ = 7;
    std::function<void()> onEpoch_;
    mutable unsigned long lookups_ = 0;
    // lint:state-cov-ok(derived cache: recomputed lazily from epoch_ on first lookup)
    unsigned long cache_ = 0;
};

class SnapOutOfLine
{
  public:
    template <class Self, class Ar>
    static void state(Self &self, Ar &ar);

  private:
    unsigned long cursor_ = 0;
};

template <class Self, class Ar>
void
SnapOutOfLine::state(Self &self, Ar &ar)
{
    ar.u64(self.cursor_);
}

} // namespace fixture

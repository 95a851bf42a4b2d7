// Fixture: per-world member state and immutable statics are fine in
// simulation code.
struct World {
  int nextTicket = 0;
  int ticket() { return ++nextTicket; }
};

int limit() {
  static const int kLimit = 64;
  return kLimit;
}

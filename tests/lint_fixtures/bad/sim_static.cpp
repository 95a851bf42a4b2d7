// Fixture: sim-static must flag mutable statics in simulation code.
int ticket() {
  static int next = 0;
  return ++next;
}

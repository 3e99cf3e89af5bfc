"""Correlation model and dodecahedron geometry in a nutshell.

Shows how distance maps to correlation, how a correlation threshold maps back
to a sensing radius, and the dodecahedron constants used to size node ranges.
"""

from wsn3d import (
    CorrelationModel,
    correlation,
    correlation_radius,
    dodeca_circumradius,
    dodeca_edge_from_circumradius,
    dodeca_volume,
    event_volume,
)

model = CorrelationModel(theta=30.0, alpha=1.0)

print("correlation versus distance (theta=30, alpha=1)")
for d in (0.0, 1.0, 3.0, 6.0, 10.0, 20.0, 50.0):
    print(f"  d = {d:5.1f} m  ->  {correlation(model, d):.4f}")

print()
print("threshold -> sensing radius -> event volume")
for tau in (0.70, 0.85, 0.95):
    r = correlation_radius(model, tau)
    v = event_volume(model, tau)
    print(f"  tau = {tau:.2f}  ->  r = {r:7.4f} m  ->  V = {v:9.2f} m^3")

print()
print("round trip: correlation(correlation_radius(tau)) == tau")
for tau in (0.5, 0.85, 0.99):
    back = correlation(model, correlation_radius(model, tau))
    print(f"  tau = {tau:.2f}  ->  {back:.12f}")

print()
print("regular dodecahedron with unit edge")
print(f"  circumradius = {dodeca_circumradius(1.0):.6f}")
print(f"  volume       = {dodeca_volume(1.0):.6f}")

r = correlation_radius(model, 0.85)
edge = dodeca_edge_from_circumradius(r)
print()
print(f"node range from the tau=0.85 radius {r:.4f} m:")
print(f"  edge = {edge:.4f} m, volume = {dodeca_volume(edge):.2f} m^3")

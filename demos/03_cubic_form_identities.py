"""Cubic form coefficients and the identities that tie them to the net.

Shows the four expansions of the second differences, the closed forms of
the staggered derivatives of A and B, the derivative formulas for the
affine normal, and the improper-affine-sphere criterion (A = A(u) and
B = B(v) exactly when the affine normal is constant).
"""

import numpy as np

import affmin as am

for name, field in {
    "cubic":  am.minimal_cubic(am.GridDomain(1, 11, 1, 11)),
    "sphere": am.improper_sphere(am.GridDomain(1, 11, -10, 0)),
    "helicoid": am.helicoid(16, (0, 10), (0, 16)),
}.items():
    surface = am.integrate(field)
    volumes = am.face_volumes(surface)
    normals = am.affine_normal(surface, volumes.areas)
    form = am.cubic_coefficients(surface, normals)
    structural = am.structural_residuals(surface, volumes.areas, form)
    derivs, closed = am.a2_b1_closed_form(surface, normals, volumes.areas, form)
    nd = am.normal_derivative_residuals(surface, normals, volumes.areas, derivs)

    xi_spread = np.abs(normals.values - normals.values[0, 0]).max()
    da = np.abs(np.diff(form.u_coeff.values, axis=1)).max()
    db = np.abs(np.diff(form.v_coeff.values, axis=0)).max()

    print(f"== {name}")
    print(f"   face-choice spread of A, B : {form.max_spread_u:.1e}, "
          f"{form.max_spread_v:.1e}")
    print(f"   worst structural expansion : {structural.max_residual:.1e} "
          f"({structural.worst_identity})")
    print(f"   closed-form vs differences : {closed.relative_gap:.1e}")
    print(f"   normal derivative formulas : {nd.max_residual:.1e}")
    print(f"   affine normal spread       : {xi_spread:.3e}")
    print(f"   max |A(u,v+1)-A(u,v)|      : {da:.3e}")
    print(f"   max |B(u+1,v)-B(u,v)|      : {db:.3e}")
    if xi_spread < 1e-10:
        print("   -> constant normal and separated coefficients: "
              "improper affine sphere")
    else:
        print("   -> normal varies; coefficients genuinely depend on both "
              "variables")
    print()
